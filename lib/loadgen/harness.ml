module Live = Repro_transport.Live
module Session = Repro_transport.Session
module Node = Repro_cluster.Node
module Supervisor = Repro_cluster.Supervisor
module Workload_spec = Repro_cluster.Workload_spec
module Registry = Repro_core.Registry
module Memory = Repro_core.Memory
module Net = Repro_msgpass.Net
module Stats = Repro_util.Stats
module Record = Repro_util.Record

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
                      ~quiet_ms:1_000 ()
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

(* --- reports ----------------------------------------------------------------- *)

let summary r =
  Record.
    [
      ints "attempted_ops" "count" [ r.attempted_ops ];
      ints "completed_ops" "count" [ r.completed_ops ];
      ints "failed_ops" "count" [ r.failed_ops ];
      ints "unsent" "count" [ r.unsent ];
      ints "timeouts" "count" [ r.timeouts ];
      ints "client_ops_served" "count" [ r.client_ops_served ];
      nums "ops_per_sec" "1/s" [ r.ops_per_sec ];
      nums "ops_per_node_cpu_s" "1/s" [ r.ops_per_node_cpu_s ];
    ]

let latency_metrics st =
  (* an empty sketch has no mean or percentiles: n/a, not 0 *)
  let stat f = if Stats.count st = 0 then nan else f st in
  let pct p = stat (fun st -> Stats.percentile st p) in
  Record.
    [
      ints "count" "count" [ Stats.count st ];
      nums "mean" "us" [ stat Stats.mean ];
      nums "sd" "us" [ stat Stats.stddev ];
      nums "min" "us" [ stat Stats.min ];
      nums "p50" "us" [ pct 50.0 ];
      nums "p95" "us" [ pct 95.0 ];
      nums "p99" "us" [ pct 99.0 ];
      nums "max" "us" [ stat Stats.max ];
    ]

let latency r =
  {
    Record.title = "Latency";
    rows =
      List.map
        (fun (case, st) -> { Record.case; metrics = latency_metrics st })
        [
          ("all", r.lat_us); ("read", r.read_us); ("write", r.write_us);
          ("scan", r.scan_us);
        ];
  }

let lanes r =
  Record.
    [
      ints "messages" "count" [ r.messages_sent ];
      ints "control_bytes" "B" [ r.control_bytes ];
      ints "payload_bytes" "B" [ r.payload_bytes ];
      ints "overhead_bytes" "B" [ r.overhead_bytes ];
      ints "frames" "count" [ r.frames_sent ];
      ints "segs" "count" [ r.segs_sent ];
      ints "acks_standalone" "count" [ r.acks_sent ];
      ints "acks_piggybacked" "count" [ r.acks_piggybacked ];
      ints "retransmits" "count" [ r.retransmits ];
      ints "client_bytes_out" "B" [ r.bytes_out ];
      ints "client_bytes_in" "B" [ r.bytes_in ];
      ints "node_wall" "ms" [ r.node_wall_ms ];
      nums "node_cpu" "s" [ r.node_cpu_s ];
    ]
