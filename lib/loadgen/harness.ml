module Live = Repro_transport.Live
module Session = Repro_transport.Session
module Node = Repro_cluster.Node
module Supervisor = Repro_cluster.Supervisor
module Workload_spec = Repro_cluster.Workload_spec
module Registry = Repro_core.Registry
module Memory = Repro_core.Memory
module Net = Repro_msgpass.Net
module Stats = Repro_util.Stats
module Jsonout = Repro_util.Jsonout

type config = {
  protocol : Registry.spec;
  n : int;
  clients : int;
  rate : float;
  duration_ms : int;
  mix : Mix.t;
  seed : int;
  coalesce : int;
  drain_plan : bool;
  gc_space_overhead : int option;
      (** [Gc.space_overhead] for every forked node and client process. *)
}

type result = {
  protocol : string;
  workload : string;
  n : int;
  clients : int;
  mix : string;
  rate : float;
  duration_ms : int;
  seed : int;
  coalesce : int;
  drain_plan : bool;
  attempted_ops : int;
  completed_ops : int;
  failed_ops : int;
  unsent : int;
  timeouts : int;
  bytes_out : int;
  bytes_in : int;
  span_us : int;
  ops_per_sec : float;
  lat_us : Stats.t;
  read_us : Stats.t;
  write_us : Stats.t;
  scan_us : Stats.t;
  client_ops_served : int;
  messages_sent : int;
  control_bytes : int;
  payload_bytes : int;
  overhead_bytes : int;
  frames_sent : int;
  segs_sent : int;
  acks_sent : int;
  acks_piggybacked : int;
  retransmits : int;
  node_wall_ms : int;
  node_cpu_s : float;
  ops_per_node_cpu_s : float;
}

type child = Node_ok of Node.result * float | Client_ok of Client.report

let client_seed seed cid = seed + ((cid + 1) * 7919)

let run (cfg : config) =
  if cfg.n < 1 then Error "load: need at least one node"
  else if cfg.clients < 1 then Error "load: need at least one client"
  else if cfg.duration_ms < 1 then Error "load: duration must be positive"
  else if cfg.rate <= 0.0 then Error "load: rate must be positive"
  else if cfg.coalesce < 1 then Error "load: coalesce must be >= 1"
  else if (match cfg.gc_space_overhead with Some so -> so < 1 | None -> false)
  then Error "load: gc space overhead must be >= 1"
  else if cfg.protocol.Registry.blocking then
    Error
      (Printf.sprintf "load: protocol %s has blocking operations"
         cfg.protocol.Registry.name)
  else begin
    let workload_name =
      if cfg.protocol.Registry.requires_full_replication then "load-full"
      else "load"
    in
    match Workload_spec.make ~name:workload_name ~n:cfg.n ~seed:cfg.seed with
    | Error msg -> Error msg
    | Ok spec ->
        let listen_fds =
          Array.init cfg.n (fun _ ->
              Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)))
        in
        let peers = Array.map Live.listen_addr listen_fds in
        let grace_ms = 5_000 in
        let run_timeout_ms = cfg.duration_ms + grace_ms + 40_000 in
        let sup = Supervisor.create ~deadline_ms:(run_timeout_ms + 30_000) () in
        let close_all =
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        in
        (* Clients are forked first and each builds its plan in its own
           process: a plan is large, and the parent's heap is copied into
           every child forked after it.  Nodes leave after a quiet window,
           so they are forked only once every plan is ready, and the
           clients' clocks start on the go byte that follows. *)
        let ready_r, ready_w = Unix.pipe () in
        let go_r, go_w = Unix.pipe () in
        for cid = 0 to cfg.clients - 1 do
          Supervisor.spawn sup (fun ~incarnation:_ ->
              close_all (ready_r :: go_w :: Array.to_list listen_fds);
              Option.iter
                (fun so -> Gc.set { (Gc.get ()) with Gc.space_overhead = so })
                cfg.gc_space_overhead;
              let events =
                Client.plan ~mix:cfg.mix ~dist:spec.Workload_spec.dist
                  ~rate:(cfg.rate /. float_of_int cfg.clients)
                  ~duration_ms:cfg.duration_ms
                  ~seed:(client_seed cfg.seed cid)
              in
              ignore (Unix.write_substring ready_w "r" 0 1 : int);
              if Unix.read go_r (Bytes.create 1) 0 1 <> 1 then
                failwith "no go signal";
              Client_ok
                (Client.run ~client_id:cid ~peers ~events
                   ~drain_plan:cfg.drain_plan ~duration_ms:cfg.duration_ms
                   ~grace_ms ()))
        done;
        close_all [ ready_w; go_r ];
        let client_ended () =
          List.exists
            (fun cid -> Option.is_some (Supervisor.ending sup cid))
            (List.init cfg.clients Fun.id)
        in
        let ready = ref 0 in
        let chunk = Bytes.create 64 in
        while
          !ready < cfg.clients
          && Supervisor.running sup
          && not (client_ended ())
        do
          if Supervisor.step sup ~fds:[ ready_r ] ~timeout:0.2 () <> [] then
            ready := !ready + Unix.read ready_r chunk 0 (Bytes.length chunk)
        done;
        close_all [ ready_r ];
        let endings =
          if !ready < cfg.clients then begin
            (* a client failed before its plan was ready: the others still
               wait for the go byte *)
            let endings = Supervisor.stop sup in
            close_all (go_w :: Array.to_list listen_fds);
            endings
          end
          else begin
            for self = 0 to cfg.n - 1 do
              Supervisor.spawn sup (fun ~incarnation:_ ->
                  Array.iteri
                    (fun j fd -> if j <> self then Unix.close fd)
                    listen_fds;
                  let r =
                    Node.run ~self ~listen_fd:listen_fds.(self) ~peers
                      ~protocol:cfg.protocol ~workload:spec ~seed:cfg.seed
                      ~session:true ~coalesce:cfg.coalesce ~run_timeout_ms
                      ~quiet_ms:1_000 ?gc_space_overhead:cfg.gc_space_overhead
                      ()
                  in
                  let tms = Unix.times () in
                  Node_ok (r, tms.Unix.tms_utime +. tms.Unix.tms_stime))
            done;
            close_all (Array.to_list listen_fds);
            ignore
              (Unix.write_substring go_w (String.make cfg.clients 'g') 0
                 cfg.clients
                : int);
            close_all [ go_w ];
            Supervisor.wait sup
          end
        in
        let name i =
          if i < cfg.clients then Printf.sprintf "client %d" i
          else Printf.sprintf "node %d" (i - cfg.clients)
        in
        (* a child that failed on its own is reported before the ones the
           supervisor put down *)
        let failures =
          Array.to_list endings
          |> List.mapi (fun i e ->
                 match e with
                 | Supervisor.Finished _ -> None
                 | Supervisor.Crashed msg -> Some (false, name i ^ ": " ^ msg)
                 | Supervisor.Injected_crash ->
                     Some (false, name i ^ ": injected crash")
                 | Supervisor.Put_down ->
                     Some
                       (true, name i ^ ": put down by the supervisor watchdog"))
          |> List.filter_map Fun.id
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        in
        match failures with
        | (_, e) :: _ -> Error e
        | [] ->
            let creps =
              Array.to_list endings
              |> List.filter_map (function
                   | Supervisor.Finished (Client_ok r) -> Some r
                   | _ -> None)
            in
            let nreps =
              Array.to_list endings
              |> List.filter_map (function
                   | Supervisor.Finished (Node_ok (r, cpu)) -> Some (r, cpu)
                   | _ -> None)
            in
            let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
            let maxi f l = List.fold_left (fun a x -> Stdlib.max a (f x)) 0 l in
            let merge_stats f l =
              List.fold_left
                (fun acc r -> Stats.merge acc (f r))
                (Stats.create_sketch ())
                l
            in
            let completed = sum (fun (r : Client.report) -> r.completed_ops) creps in
            let span_us = maxi (fun (r : Client.report) -> r.send_span_us) creps in
            (* completed work over the time it actually took: under
               saturation replies trail the submission window and the
               completion span — not the configured duration — is the
               honest denominator *)
            let denom_us =
              Stdlib.max 1
                (maxi (fun (r : Client.report) -> r.completion_span_us) creps)
            in
            let nsum f =
              List.fold_left (fun a ((r : Node.result), _) -> a + f r) 0 nreps
            in
            let node_cpu_s =
              List.fold_left (fun a (_, c) -> a +. c) 0.0 nreps
            in
            let sess f =
              nsum (fun r ->
                  match r.Node.session_stats with Some s -> f s | None -> 0)
            in
            Ok
              {
                protocol = cfg.protocol.Registry.name;
                workload = workload_name;
                n = cfg.n;
                clients = cfg.clients;
                mix = Mix.to_string cfg.mix;
                rate = cfg.rate;
                duration_ms = cfg.duration_ms;
                seed = cfg.seed;
                coalesce = cfg.coalesce;
                drain_plan = cfg.drain_plan;
                attempted_ops = sum (fun (r : Client.report) -> r.attempted_ops) creps;
                completed_ops = completed;
                failed_ops = sum (fun (r : Client.report) -> r.failed_ops) creps;
                unsent = sum (fun (r : Client.report) -> r.unsent) creps;
                timeouts = sum (fun (r : Client.report) -> r.timeouts) creps;
                bytes_out = sum (fun (r : Client.report) -> r.bytes_out) creps;
                bytes_in = sum (fun (r : Client.report) -> r.bytes_in) creps;
                span_us;
                ops_per_sec =
                  float_of_int completed *. 1e6 /. float_of_int denom_us;
                lat_us = merge_stats (fun (r : Client.report) -> r.lat_us) creps;
                read_us = merge_stats (fun (r : Client.report) -> r.read_us) creps;
                write_us = merge_stats (fun (r : Client.report) -> r.write_us) creps;
                scan_us = merge_stats (fun (r : Client.report) -> r.scan_us) creps;
                client_ops_served = nsum (fun r -> r.Node.client_ops);
                messages_sent = nsum (fun r -> r.Node.metrics.Memory.messages_sent);
                control_bytes = nsum (fun r -> r.Node.metrics.Memory.control_bytes);
                payload_bytes = nsum (fun r -> r.Node.metrics.Memory.payload_bytes);
                overhead_bytes = nsum (fun r -> r.Node.wire.Net.overhead_bytes);
                frames_sent = sess (fun s -> s.Session.frames_sent);
                segs_sent = sess (fun s -> s.Session.segs_sent);
                acks_sent = sess (fun s -> s.Session.acks_sent);
                acks_piggybacked = sess (fun s -> s.Session.acks_piggybacked);
                retransmits = sess (fun s -> s.Session.retransmits);
                node_wall_ms =
                  List.fold_left
                    (fun a ((r : Node.result), _) -> Stdlib.max a r.Node.wall_ms)
                    0 nreps;
                node_cpu_s;
                ops_per_node_cpu_s =
                  (if node_cpu_s > 0.0 then float_of_int completed /. node_cpu_s
                   else 0.0);
              }
  end

let pct st p = if Stats.count st = 0 then 0.0 else Stats.percentile st p

let lat_json st =
  if Stats.count st = 0 then Jsonout.Null
  else
    Jsonout.Obj
      [
        ("count", Jsonout.Int (Stats.count st));
        ("mean_us", Jsonout.Float (Stats.mean st));
        ("p50_us", Jsonout.Float (pct st 50.0));
        ("p95_us", Jsonout.Float (pct st 95.0));
        ("p99_us", Jsonout.Float (pct st 99.0));
        ("max_us", Jsonout.Float (Stats.max st));
      ]

let json_of_result r =
  Jsonout.Obj
    [
      ("protocol", Jsonout.String r.protocol);
      ("workload", Jsonout.String r.workload);
      ("n", Jsonout.Int r.n);
      ("clients", Jsonout.Int r.clients);
      ("mix", Jsonout.String r.mix);
      ("rate_ops_per_sec", Jsonout.Float r.rate);
      ("duration_ms", Jsonout.Int r.duration_ms);
      ("seed", Jsonout.Int r.seed);
      ("coalesce", Jsonout.Int r.coalesce);
      ("drain_plan", Jsonout.Bool r.drain_plan);
      ("attempted_ops", Jsonout.Int r.attempted_ops);
      ("completed_ops", Jsonout.Int r.completed_ops);
      ("failed_ops", Jsonout.Int r.failed_ops);
      ("unsent", Jsonout.Int r.unsent);
      ("timeouts", Jsonout.Int r.timeouts);
      ("ops_per_sec", Jsonout.Float r.ops_per_sec);
      ("latency", lat_json r.lat_us);
      ("latency_read", lat_json r.read_us);
      ("latency_write", lat_json r.write_us);
      ("latency_scan", lat_json r.scan_us);
      ("client_bytes_out", Jsonout.Int r.bytes_out);
      ("client_bytes_in", Jsonout.Int r.bytes_in);
      ("client_ops_served", Jsonout.Int r.client_ops_served);
      ("messages_sent", Jsonout.Int r.messages_sent);
      ("control_bytes", Jsonout.Int r.control_bytes);
      ("payload_bytes", Jsonout.Int r.payload_bytes);
      ("overhead_bytes", Jsonout.Int r.overhead_bytes);
      ("frames_sent", Jsonout.Int r.frames_sent);
      ("segs_sent", Jsonout.Int r.segs_sent);
      ("acks_sent", Jsonout.Int r.acks_sent);
      ("acks_piggybacked", Jsonout.Int r.acks_piggybacked);
      ("retransmits", Jsonout.Int r.retransmits);
      ("node_wall_ms", Jsonout.Int r.node_wall_ms);
      ("node_cpu_s", Jsonout.Float r.node_cpu_s);
      ("ops_per_node_cpu_s", Jsonout.Float r.ops_per_node_cpu_s);
    ]

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s on %s, n=%d, %d client(s), mix=%s, offered %.0f ops/s for %d ms%s@,\
     ops: attempted=%d completed=%d failed=%d unsent=%d timeouts=%d@,\
     throughput: %.0f ops/s (served by nodes: %d; %.0f ops per node \
     cpu-second over %.2fs)@,\
     latency (us): %a@,\
     protocol lane: msgs=%d control=%dB payload=%dB@,\
     overhead lane: %dB in %d frames (%d segs, acks %d standalone / %d \
     piggybacked, %d retransmits)@]"
    r.protocol r.workload r.n r.clients r.mix r.rate r.duration_ms
    (if r.coalesce > 1 then Printf.sprintf ", coalesce=%d" r.coalesce else "")
    r.attempted_ops r.completed_ops r.failed_ops r.unsent r.timeouts
    r.ops_per_sec r.client_ops_served r.ops_per_node_cpu_s r.node_cpu_s
    Stats.pp_summary r.lat_us r.messages_sent
    r.control_bytes r.payload_bytes r.overhead_bytes r.frames_sent r.segs_sent
    r.acks_sent r.acks_piggybacked r.retransmits
