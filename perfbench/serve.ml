(* serve-read / serve-write: a live two-node pram-partial cluster driven by
   the benchmark's own single-process open-loop generator.

   Nodes are the stack [repro load] starts — [Repro_cluster.Node.run] with
   the session layer, coalesce 8 and a 1 s quiet window on loopback TCP —
   each in a freshly exec'd process of this executable, so no node inherits
   the plan the parent built before starting them.  The generator sends
   through the public [Rpc]/[Wire]/[Vecio] calls and times every op from
   its due time in the plan, never from its submission. *)

module Wire = Repro_transport.Wire
module Rpc = Repro_transport.Rpc
module Vecio = Repro_transport.Vecio
module Live = Repro_transport.Live
module Session = Repro_transport.Session
module Transport = Repro_transport.Transport
module Node = Repro_cluster.Node
module Workload_spec = Repro_cluster.Workload_spec
module Registry = Repro_core.Registry
module Memory = Repro_core.Memory
module Client = Repro_loadgen.Client
module Distribution = Repro_sharegraph.Distribution
module Net = Repro_msgpass.Net
module Op = Repro_history.Op

let now_ns = Trace.now_ns
let protocol_name = "pram-partial"
let coalesce = 8
let quiet_ms = 1_000
(* set-up is timed on back-to-back cluster starts before and after the
   load, so one burst of host interference cannot move the whole sample *)
let setups_before = 20
let setups_after = 20
let max_outstanding = 1024
let grace_ns = 5_000_000_000
let window_us = 20_000
let pram () = Option.get (Registry.find protocol_name)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The session's retransmission timeout, and how often the generator
   samples the host's CPU steal while it drives the load. *)
let timeout_ns = Session.default.Session.retransmit_after * 1_000_000
let steal_every_ns = 10_000_000
let steal_tick_ns = 10_000_000

(* CPU time the host took from this guest, all vCPUs together, in ms: the
   steal field of /proc/stat's "cpu" line, counted in USER_HZ (100 per
   second) ticks.  None where the file or the field is missing. *)
let stat_buf = Bytes.create 256

let steal_ms () =
  match Unix.openfile "/proc/stat" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
      let k =
        try Unix.read fd stat_buf 0 (Bytes.length stat_buf)
        with Unix.Unix_error _ -> 0
      in
      Unix.close fd;
      let text = Bytes.sub_string stat_buf 0 k in
      let line =
        match String.index_opt text '\n' with
        | Some i -> String.sub text 0 i
        | None -> text
      in
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          Option.map (fun ticks -> ticks * 10) (int_of_string_opt (List.nth fields 7))
      | _ -> None)

(* --- node child ------------------------------------------------------------- *)

(* Child side of the exec'd node: bind, report the port, read every peer's
   port, then run the node.  SIGUSR1 marks the measured window: the parent
   signals once before the first due op and once after the last reply, and
   the node's CPU and minor words between the two marks are its cost of the
   load (set-up and the quiet-window drain excluded). *)
let node_child ~self ~seed ~run_timeout_ms =
  let marks = ref [] in
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle
       (fun _ -> marks := (cpu_s (), Gc.minor_words ()) :: !marks));
  let fd = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  (match Live.listen_addr fd with
  | Unix.ADDR_INET (_, port) -> Printf.printf "port %d\n%!" port
  | Unix.ADDR_UNIX _ -> failwith "node: not an inet socket");
  let peers =
    input_line stdin |> String.split_on_char ' '
    |> List.map (fun p ->
           Unix.ADDR_INET (Unix.inet_addr_loopback, int_of_string p))
    |> Array.of_list
  in
  let workload =
    match Workload_spec.make ~name:"load" ~n:(Array.length peers) ~seed with
    | Ok w -> w
    | Error e -> failwith e
  in
  let r =
    Node.run ~self ~listen_fd:fd ~peers ~protocol:(pram ()) ~workload ~seed
      ~session:true ~coalesce ~quiet_ms ~run_timeout_ms ()
  in
  let cpu, minor =
    match !marks with
    | (c1, w1) :: (c0, w0) :: _ -> (c1 -. c0, w1 -. w0)
    | _ -> (nan, nan)
  in
  let s = Option.get r.Node.session_stats in
  let m = r.Node.metrics and w = r.Node.wire in
  let fields =
    [
      ("cpu_s", cpu);
      ("minor_words", minor);
      ("top_heap_words", float_of_int (Gc.quick_stat ()).Gc.top_heap_words);
      ("client_ops", float_of_int r.Node.client_ops);
      ("messages_sent", float_of_int m.Memory.messages_sent);
      ("messages_delivered", float_of_int m.Memory.messages_delivered);
      ("control_bytes", float_of_int m.Memory.control_bytes);
      ("payload_bytes", float_of_int m.Memory.payload_bytes);
      ("frames_sent", float_of_int w.Net.sent);
      ("dropped", float_of_int w.Net.dropped);
      ("reconnects", float_of_int w.Net.reconnects);
      ("retransmits", float_of_int s.Session.retransmits);
      ("segs_sent", float_of_int s.Session.segs_sent);
      ("acks_sent", float_of_int s.Session.acks_sent);
      ("acks_piggybacked", float_of_int s.Session.acks_piggybacked);
      ("session_frames", float_of_int s.Session.frames_sent);
      ("overhead_bytes", float_of_int s.Session.overhead_bytes);
    ]
  in
  Printf.printf "report %s\n%!"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) fields))

(* --- cluster from the parent's side ---------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable alive : bool;  (** false once the node closed or reset it *)
}

type node = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
}

type cluster = {
  nodes : node array;
  conns : conn array;
  started_ns : int;  (** first exec, monotonic clock *)
  spawn_ns : int;  (** first exec until every node reported its port *)
  answer_ns : int;  (** peers handed out until every probe was answered *)
  cpu_ns : int;
      (** CPU this process and every node spent from the first exec until
          every probe was answered *)
}

let rbuf = Bytes.create 65536

let probe_id node = 0x7FFF_FF00 + node

(* Node processes not yet reaped: whatever way this process exits, none
   outlives it. *)
let running = ref []

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status ->
      running := List.filter (( <> ) pid) !running;
      status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_retry pid)

let () = at_exit (fun () -> List.iter kill_and_reap !running)

let stop_cluster c =
  Array.iter (fun k -> try Unix.close k.fd with Unix.Unix_error _ -> ()) c.conns;
  Array.iter
    (fun nd ->
      kill_and_reap nd.pid;
      close_out_noerr nd.to_child;
      close_in_noerr nd.from_child)
    c.nodes

(* Read whatever replies are buffered on [c], handing each decoded response
   to [on_reply] with the time the read returned. *)
let service c ~on_reply ~on_decode =
  match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> 0
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      c.alive <- false;
      0
  | 0 ->
      c.alive <- false;
      0
  | nread ->
      let at = now_ns () in
      Wire.feed c.dec rbuf nread;
      let rec pump () =
        match Wire.next_view c.dec with
        | Ok (Some v) ->
            (match v.Wire.v_kind with
            | Wire.Cresp -> (
                let t0 = on_decode () in
                match
                  Rpc.decode_response_at v.Wire.v_buf ~pos:v.Wire.v_off
                    ~len:v.Wire.v_len
                with
                | Ok (id, outcomes) -> on_reply ~at ~t0 id outcomes
                | Error e -> failwith ("serve: corrupt response: " ^ e))
            | _ -> failwith "serve: unexpected frame kind from a node");
            pump ()
        | Ok None -> ()
        | Error e -> failwith ("serve: corrupt stream: " ^ e)
      in
      pump ();
      nread

let select_read fds timeout_s =
  match Unix.select fds [] [] (Float.max 0. timeout_s) with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* On-CPU time of a single-threaded process so far, ns: the first field of
   /proc/<pid>/schedstat (exec, runtime start and everything after). *)
let process_cpu_ns pid =
  let path = Printf.sprintf "/proc/%d/schedstat" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match int_of_string_opt (List.hd (String.split_on_char ' ' text)) with
      | Some ns -> ns
      | None -> failwith ("serve: malformed " ^ path))
  | exception Sys_error e -> failwith ("serve: no per-process CPU clock: " ^ e)

let start_cluster ~exe ~seed ~run_timeout_ms ~(dist : Distribution.t) =
  let cpu0 = cpu_s () in
  let t0 = now_ns () in
  let nodes =
    Array.init Plan.n_nodes (fun self ->
        let in_r, in_w = Unix.pipe ~cloexec:true () in
        let out_r, out_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process exe
            [|
              exe; "--node-child"; string_of_int self; string_of_int seed;
              string_of_int run_timeout_ms;
            |]
            in_r out_w Unix.stderr
        in
        running := pid :: !running;
        Unix.close in_r;
        Unix.close out_w;
        {
          pid;
          to_child = Unix.out_channel_of_descr in_w;
          from_child = Unix.in_channel_of_descr out_r;
        })
  in
  let port nd =
    match String.split_on_char ' ' (input_line nd.from_child) with
    | [ "port"; p ] -> int_of_string p
    | _ -> failwith "serve: node did not report its port"
    | exception End_of_file -> failwith "serve: node exited during start-up"
  in
  let ports = Array.map port nodes in
  let t1 = now_ns () in
  let line =
    String.concat " " (Array.to_list (Array.map string_of_int ports)) ^ "\n"
  in
  Array.iter
    (fun nd ->
      output_string nd.to_child line;
      flush nd.to_child)
    nodes;
  let conns =
    Array.map
      (fun p ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        { fd; dec = Wire.decoder (); alive = true })
      ports
  in
  (* one read of a variable each node holds: answered once the node's
     event loop serves its front door *)
  Array.iteri
    (fun node k ->
      let var = List.hd (Distribution.vars_of dist node) in
      let body = Rpc.encode_request ~id:(probe_id node) (Rpc.Op (Rpc.Read { var })) in
      let frame =
        Wire.encode
          {
            Wire.kind = Wire.Creq;
            src = Client.client_src 0;
            dst = node;
            epoch = 0;
            control_bytes = String.length body;
            payload_bytes = 0;
            body;
          }
      in
      ignore (Unix.write k.fd frame 0 (Bytes.length frame)))
    conns;
  let answered = Array.make Plan.n_nodes false in
  let deadline = now_ns () + 20_000_000_000 in
  while not (Array.for_all Fun.id answered) do
    if now_ns () > deadline then failwith "serve: probe unanswered after 20 s";
    if Array.exists (fun k -> not k.alive) conns then
      failwith "serve: a node closed its connection during start-up";
    let fds = Array.to_list (Array.map (fun k -> k.fd) conns) in
    let ready = select_read fds 0.01 in
    Array.iteri
      (fun node k ->
        if List.memq k.fd ready then
          ignore
            (service k
               ~on_decode:(fun () -> 0)
               ~on_reply:(fun ~at:_ ~t0:_ id outcomes ->
                 match outcomes with
                 | [| Rpc.Got _ |] when id = probe_id node ->
                     answered.(node) <- true
                 | _ -> failwith "serve: bad probe reply")))
      conns
  done;
  let t2 = now_ns () in
  let cpu_ns =
    Array.fold_left (fun a nd -> a + process_cpu_ns nd.pid) 0 nodes
    + int_of_float ((cpu_s () -. cpu0) *. 1e9)
  in
  {
    nodes;
    conns;
    started_ns = t0;
    spawn_ns = t1 - t0;
    answer_ns = t2 - t1;
    cpu_ns;
  }

let parse_report line =
  match String.split_on_char ' ' line with
  | "report" :: fields ->
      List.map
        (fun f ->
          match String.index_opt f '=' with
          | Some i ->
              ( String.sub f 0 i,
                float_of_string (String.sub f (i + 1) (String.length f - i - 1)) )
          | None -> failwith "serve: malformed node report")
        fields
  | _ -> failwith "serve: malformed node report"

(* After the load: close the client side, let each node drain its quiet
   window and exit, then collect its report line and exit status. *)
let finish_cluster c =
  Array.iter (fun k -> try Unix.close k.fd with Unix.Unix_error _ -> ()) c.conns;
  Array.map
    (fun nd ->
      let report =
        match input_line nd.from_child with
        | line -> Ok (parse_report line)
        | exception End_of_file -> Error "node exited without a report"
      in
      let status = waitpid_retry nd.pid in
      close_out_noerr nd.to_child;
      close_in_noerr nd.from_child;
      match (report, status) with
      | Ok r, Unix.WEXITED 0 -> Ok r
      | Ok _, _ -> Error "node exited abnormally"
      | (Error _ as e), _ -> e)
    c.nodes

(* --- the open-loop generator ------------------------------------------------ *)

(* Op [i]'s request as a complete [Creq] frame in a pooled buffer, built in
   place the way the load generator's hot path builds it. *)
let request_frame pool (plan : Plan.t) i =
  let t = Plan.target plan i in
  let req = Plan.request plan i in
  let body_len = Rpc.request_body_len req in
  let total = Wire.body_offset + body_len in
  let buf = Wire.Pool.acquire pool total in
  ignore (Rpc.emit_request buf Wire.body_offset ~id:i req : int);
  let payload = Rpc.request_payload_bytes req in
  Wire.set_header buf ~kind:Wire.Creq ~src:(Client.client_src 0) ~dst:t
    ~control_bytes:(body_len - payload) ~payload_bytes:payload ~body_len;
  (buf, total)

type gen = {
  send_ns : Plan.ints;  (** when the op's frame went to writev, ns from start; -1 unsent *)
  reply_ns : Plan.ints;  (** when its reply was read; -1 unanswered *)
  mutable failed_outcomes : int;
  mutable wrong : int;  (** replies whose content the plan rules out *)
  mutable writev_calls : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable cpu_s : float;
  mutable wall_ns : int;  (** first due op until the last reply *)
  max_gap_ns : int array;
      (** per node, the longest time it had requests in flight and sent no
          reply *)
  mutable gaps : (int * int) list;
      (** (from, until), ns from the start of the load: every such stretch
          on any node at least a session timeout long, the only stalls that
          can make a peer retransmit *)
  mutable steal : (int * int) list;
      (** (ns from the start of the load, host steal in ms), sampled every
          10 ms while the load runs, newest first *)
}

let drive ~(plan : Plan.t) ~conns ~(trace : Trace.t) ~mark =
  let n = plan.Plan.n in
  let g =
    {
      send_ns = Plan.ints n;
      reply_ns = Plan.ints n;
      failed_outcomes = 0;
      wrong = 0;
      writev_calls = 0;
      bytes_out = 0;
      bytes_in = 0;
      cpu_s = 0.;
      wall_ns = 0;
      max_gap_ns = Array.make (Array.length conns) 0;
      gaps = [];
      steal = [];
    }
  in
  Bigarray.Array1.fill g.send_ns (-1);
  Bigarray.Array1.fill g.reply_ns (-1);
  let pool = Wire.Pool.create () in
  let nt = Array.length conns in
  let queue = Array.init nt (fun _ -> Array.make Vecio.max_iov (Bytes.empty, 0, 0)) in
  let queued_ops = Array.init nt (fun _ -> Array.make Vecio.max_iov 0) in
  let queued = Array.make nt 0 in
  let enc_tot = Trace.total trace "rpc.req_encode" in
  let dec_tot = Trace.total trace "rpc.resp_decode" in
  let wv_tot = Trace.total trace "vecio.writev" in
  let roots : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  (* unanswered ops in flight, in all and per node; ops in flight to a
     connection the node closed can never be answered, so they leave the
     count (and stay unanswered in [reply_ns]) *)
  let outstanding = ref 0 in
  let in_flight = Array.make nt 0 in
  let waiting_since = Array.make nt 0 in
  let retire_dead () =
    Array.iteri
      (fun t c ->
        if (not c.alive) && in_flight.(t) > 0 then begin
          outstanding := !outstanding - in_flight.(t);
          in_flight.(t) <- 0
        end)
      conns
  in
  let base = ref 0 in
  let flush t =
    let count = queued.(t) in
    if count > 0 then begin
      queued.(t) <- 0;
      let chunks = queue.(t) in
      let t0 = now_ns () in
      for j = 0 to count - 1 do
        g.send_ns.{queued_ops.(t).(j)} <- t0 - !base
      done;
      let rec advance start skip k =
        if k = 0 then (start, skip)
        else
          let _, _, l = chunks.(start) in
          let left = l - skip in
          if k >= left then advance (start + 1) 0 (k - left)
          else (start, skip + k)
      in
      let rec go start skip =
        if start < count then
          match
            Vecio.writev conns.(t).fd chunks ~start ~skip ~count:(count - start)
          with
          | k ->
              g.writev_calls <- g.writev_calls + 1;
              g.bytes_out <- g.bytes_out + k;
              let start, skip = advance start skip k in
              go start skip
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go start skip
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              conns.(t).alive <- false
      in
      go 0 0;
      if trace.Trace.on then begin
        let t1 = now_ns () in
        Trace.add wv_tot (t1 - t0);
        let first_sampled = ref (-1) in
        for j = 0 to count - 1 do
          let op = queued_ops.(t).(j) in
          if !first_sampled < 0 && Hashtbl.mem roots op then first_sampled := op
        done;
        if !first_sampled >= 0 then
          ignore
            (Trace.keep trace ~parent:(Hashtbl.find roots !first_sampled)
               ~op:!first_sampled ~layer:"vecio.writev" ~start:t0 ~stop:t1 ()
              : int)
      end;
      for j = 0 to count - 1 do
        let b, _, _ = chunks.(j) in
        Wire.Pool.release pool b;
        chunks.(j) <- (Bytes.empty, 0, 0)
      done
    end
  in
  let enqueue i =
    let t = Plan.target plan i in
    if conns.(t).alive then begin
    let t0 = if trace.Trace.on then now_ns () else 0 in
    let buf, total = request_frame pool plan i in
    if trace.Trace.on then begin
      let t1 = now_ns () in
      Trace.add enc_tot (t1 - t0);
      if Trace.sampled trace i then begin
        let root = Trace.fresh_id trace in
        Hashtbl.replace roots i root;
        ignore
          (Trace.keep trace ~parent:root ~op:i ~layer:"rpc.req_encode" ~start:t0
             ~stop:t1 ()
            : int)
      end
    end;
    let j = queued.(t) in
    queue.(t).(j) <- (buf, 0, total);
    queued_ops.(t).(j) <- i;
    queued.(t) <- j + 1;
    incr outstanding;
    if in_flight.(t) = 0 then waiting_since.(t) <- now_ns ();
    in_flight.(t) <- in_flight.(t) + 1;
    if j + 1 = Vecio.max_iov then flush t
    end
  in
  let on_decode () = if trace.Trace.on then now_ns () else 0 in
  let on_reply ~at ~t0 id outcomes =
    if trace.Trace.on then begin
      let t1 = now_ns () in
      Trace.add dec_tot (t1 - t0);
      match Hashtbl.find_opt roots id with
      | Some root ->
          ignore
            (Trace.keep trace ~parent:root ~op:id ~layer:"rpc.resp_decode"
               ~start:t0 ~stop:t1 ()
              : int);
          ignore
            (Trace.keep trace ~id:root ~parent:(-1) ~op:id ~layer:"client.op"
               ~start:(!base + (plan.Plan.at_us.{id} * 1000))
               ~stop:at ()
              : int);
          Hashtbl.remove roots id
      | None -> ()
    end;
    if id < 0 || id >= n || g.reply_ns.{id} >= 0 then g.wrong <- g.wrong + 1
    else begin
      g.reply_ns.{id} <- at - !base;
      decr outstanding;
      let t = Plan.target plan id in
      in_flight.(t) <- in_flight.(t) - 1;
      let gap = at - waiting_since.(t) in
      g.max_gap_ns.(t) <- max g.max_gap_ns.(t) gap;
      if gap >= timeout_ns then
        g.gaps <- (waiting_since.(t) - !base, at - !base) :: g.gaps;
      waiting_since.(t) <- at;
      match outcomes with
      | [| Rpc.Failed _ |] -> g.failed_outcomes <- g.failed_outcomes + 1
      | [| Rpc.Stored |] when Plan.is_write plan id -> ()
      | [| Rpc.Got None |] when not (Plan.is_write plan id) -> ()
      | [| Rpc.Got (Some v) |] when not (Plan.is_write plan id) ->
          (* the value must be a planned write of this variable that was
             already on the wire when the reply came back *)
          if
            v < 1 || v > plan.Plan.writes
            || Plan.var plan plan.Plan.write_op.{v} <> Plan.var plan id
            || g.send_ns.{plan.Plan.write_op.{v}} < 0
            || g.send_ns.{plan.Plan.write_op.{v}} > at - !base
          then g.wrong <- g.wrong + 1
      | _ -> g.wrong <- g.wrong + 1
    end
  in
  let poll timeout_s =
    let live = List.filter (fun c -> c.alive) (Array.to_list conns) in
    let ready = select_read (List.map (fun c -> c.fd) live) timeout_s in
    List.iter
      (fun c ->
        if List.memq c.fd ready then
          g.bytes_in <- g.bytes_in + service c ~on_reply ~on_decode)
      live;
    retire_dead ()
  in
  let last_steal = ref min_int in
  let sample_steal ~force now =
    if force || now - !last_steal >= steal_every_ns then begin
      last_steal := now;
      match steal_ms () with
      | Some ms -> g.steal <- (now, ms) :: g.steal
      | None -> ()
    end
  in
  mark ();
  let cpu0 = cpu_s () in
  base := now_ns ();
  sample_steal ~force:true 0;
  let i = ref 0 in
  while !i < n do
    let now = now_ns () - !base in
    sample_steal ~force:false now;
    if !outstanding >= max_outstanding then begin
      for t = 0 to nt - 1 do flush t done;
      poll 0.001
    end
    else if plan.Plan.at_us.{!i} * 1000 <= now then begin
      (* the whole due burst goes out in one writev per node *)
      while
        !i < n
        && plan.Plan.at_us.{!i} * 1000 <= now
        && !outstanding < max_outstanding
      do
        enqueue !i;
        incr i
      done;
      for t = 0 to nt - 1 do flush t done;
      retire_dead ()
    end
    else poll (float_of_int ((plan.Plan.at_us.{!i} * 1000) - now) /. 1e9)
  done;
  let last_send = now_ns () in
  while !outstanding > 0 && now_ns () - last_send < grace_ns do
    sample_steal ~force:false (now_ns () - !base);
    poll 0.01
  done;
  sample_steal ~force:true (now_ns () - !base);
  g.wall_ns <- now_ns () - !base;
  g.cpu_s <- cpu_s () -. cpu0;
  mark ();
  g

(* --- in-process replay (traced mode) ---------------------------------------- *)

(* The calls a node makes for the same plan, in one process: request
   decode, [Memory.read]/[write] on pram-partial over [Session.wrap]
   (coalesce 8) on the simulator, [Memory.quiesce] after each due burst
   (session flush, delivery, remote apply), response encode.  Bursts are
   the plan's 100 µs windows. *)
let burst_us = 100

type replay = { wall_ns : int; node_ns : int; delivered : int }

let replay ~(plan : Plan.t) ~seed ~(trace : Trace.t) =
  let sim =
    Transport.sim ~latency:(Repro_msgpass.Latency.constant 1) ~seed ()
  in
  let factory, _ =
    Session.wrap ~config:{ Session.default with Session.seed = seed + 1; coalesce } sim
  in
  let memory = (pram ()).Registry.make ~transport:factory ~dist:plan.Plan.dist ~seed () in
  let decs = Array.init Plan.n_nodes (fun _ -> Wire.decoder ()) in
  let pool = Wire.Pool.create () in
  let src = Client.client_src 0 in
  let tot name = Trace.total trace name in
  let dec_tot = tot "rpc.req_decode" and rd_tot = tot "proto.read" in
  let wr_tot = tot "proto.write" and enc_tot = tot "rpc.resp_encode" in
  let dl_tot = tot "proto.deliver" in
  let on = trace.Trace.on in
  let clock () = if on then now_ns () else 0 in
  let serve i =
    let t = Plan.target plan i in
    let buf, total = request_frame pool plan i in
    Wire.feed decs.(t) buf total;
    Wire.Pool.release pool buf;
    let t0 = clock () in
    let id, op =
      match Wire.next_view decs.(t) with
      | Ok (Some v) -> (
          match
            Rpc.decode_request_at v.Wire.v_buf ~pos:v.Wire.v_off ~len:v.Wire.v_len
          with
          | Ok (id, Rpc.Op op) -> (id, op)
          | Ok (_, Rpc.Batch _) | Error _ -> failwith "replay: bad request")
      | Ok None | Error _ -> failwith "replay: no frame"
    in
    let t1 = clock () in
    let outcome =
      match op with
      | Rpc.Read { var } -> (
          match memory.Memory.read ~proc:t ~var with
          | Op.Init -> Rpc.Got None
          | Op.Val v -> Rpc.Got (Some v))
      | Rpc.Write { var; value } ->
          memory.Memory.write ~proc:t ~var (Op.Val value);
          Rpc.Stored
    in
    let t2 = clock () in
    let outcomes = [| outcome |] in
    let body_len = Rpc.response_body_len outcomes in
    let total = Wire.body_offset + body_len in
    let out = Wire.Pool.acquire pool total in
    Wire.set_header out ~kind:Wire.Cresp ~src:t ~dst:src ~control_bytes:0
      ~payload_bytes:(Rpc.response_payload_bytes outcomes) ~body_len;
    ignore (Rpc.emit_response out Wire.body_offset ~id outcomes : int);
    Wire.Pool.release pool out;
    if on then begin
      let t3 = now_ns () in
      let proto = if Plan.is_write plan i then wr_tot else rd_tot in
      Trace.add dec_tot (t1 - t0);
      Trace.add proto (t2 - t1);
      Trace.add enc_tot (t3 - t2);
      if Trace.sampled trace i then begin
        let root = Trace.fresh_id trace in
        let keep layer start stop =
          ignore (Trace.keep trace ~parent:root ~op:i ~layer ~start ~stop () : int)
        in
        keep "rpc.req_decode" t0 t1;
        keep (if Plan.is_write plan i then "proto.write" else "proto.read") t1 t2;
        keep "rpc.resp_encode" t2 t3;
        ignore
          (Trace.keep trace ~id:root ~parent:(-1) ~op:i ~layer:"node.serve"
             ~start:t0 ~stop:t3 ()
            : int)
      end
    end
  in
  let delivered () = (memory.Memory.metrics ()).Memory.messages_delivered in
  let start = now_ns () in
  let i = ref 0 in
  let n = plan.Plan.n in
  while !i < n do
    let window = plan.Plan.at_us.{!i} / burst_us in
    let first = !i in
    while !i < n && plan.Plan.at_us.{!i} / burst_us = window do
      serve !i;
      incr i
    done;
    let t0 = clock () in
    memory.Memory.quiesce ();
    if on then begin
      let t1 = now_ns () in
      Trace.add dl_tot (t1 - t0);
      if Trace.sampled trace first then
        ignore
          (Trace.keep trace ~parent:(-1) ~op:first ~layer:"proto.deliver"
             ~start:t0 ~stop:t1 ()
            : int)
    end
  done;
  let wall_ns = now_ns () - start in
  let node_ns =
    List.fold_left (fun a (t : Trace.total) -> a + t.Trace.ns) 0
      [ dec_tot; rd_tot; wr_tot; enc_tot; dl_tot ]
  in
  { wall_ns; node_ns; delivered = delivered () }

(* Control bytes the plan's writes cost under a protocol, counted on the
   simulator: exact for a seed. *)
let control_bytes ~(plan : Plan.t) ~seed name =
  let spec = Option.get (Registry.find name) in
  let memory = spec.Registry.make ~dist:plan.Plan.dist ~seed () in
  let i = ref 0 in
  while !i < plan.Plan.n do
    let window = plan.Plan.at_us.{!i} / burst_us in
    while !i < plan.Plan.n && plan.Plan.at_us.{!i} / burst_us = window do
      if Plan.is_write plan !i then
        memory.Memory.write ~proc:(Plan.target plan !i) ~var:(Plan.var plan !i)
          (Op.Val (Plan.value plan !i));
      incr i
    done;
    memory.Memory.quiesce ()
  done;
  (memory.Memory.metrics ()).Memory.control_bytes

(* --- one serve workload ------------------------------------------------------ *)

type summary = {
  lat : float array;  (** µs from due time to reply; +inf when unanswered *)
  late : float array;  (** µs from due time to the writev *)
  unanswered : int;
  failed : int;  (** unanswered + [Failed] outcomes: counted against the plan *)
}

let summarize (plan : Plan.t) (g : gen) =
  let n = plan.Plan.n in
  let lat = Array.make n infinity and late = Array.make n infinity in
  let unanswered = ref 0 in
  for i = 0 to n - 1 do
    let due = plan.Plan.at_us.{i} * 1000 in
    if g.send_ns.{i} >= 0 then late.(i) <- float_of_int (g.send_ns.{i} - due) /. 1e3;
    if g.reply_ns.{i} < 0 then incr unanswered
    else lat.(i) <- float_of_int (g.reply_ns.{i} - due) /. 1e3
  done;
  { lat; late; unanswered = !unanswered; failed = !unanswered + g.failed_outcomes }


let sum_field reports key =
  Array.fold_left (fun a r -> a +. List.assoc key r) 0. reports

let max_field reports key =
  Array.fold_left (fun a r -> Float.max a (List.assoc key r)) 0. reports

(* Retransmissions [node] may have made because the host, not the code,
   stalled the cluster.  Nothing is lost on loopback, so a retransmission
   means a peer acked nothing for a whole session timeout.  The stretches
   in which a node had requests in flight and replied to none for at least
   that long are merged; one counts only when the host's CPU steal measured
   across it covers it (to the 10 ms resolution of the counter).  Each such
   stretch excuses at most what it could make [node] resend: every segment
   [node] owed its peers for writes due from two timeouts before the
   stretch to its end, once per timeout the stretch spans. *)
let excused_retransmits ~(plan : Plan.t) (g : gen) node =
  let steal = Array.of_list (List.rev g.steal) in
  let stolen_ns a b =
    let before = ref None and after = ref None in
    Array.iter
      (fun (t, ms) ->
        if t <= a then before := Some ms;
        if t >= b && !after = None then after := Some ms)
      steal;
    match (!before, !after) with
    | Some s0, Some s1 -> (s1 - s0) * 1_000_000
    | _ -> 0
  in
  let segments ~from ~until =
    (* the plan is sorted by due time: find the first op due at [from] *)
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if plan.Plan.at_us.{mid} * 1000 < from then first (mid + 1) hi
        else first lo mid
    in
    let acc = ref 0 and i = ref (first 0 plan.Plan.n) in
    while !i < plan.Plan.n && plan.Plan.at_us.{!i} * 1000 <= until do
      if Plan.target plan !i = node && Plan.is_write plan !i then
        acc :=
          !acc
          + List.length (Distribution.holders plan.Plan.dist (Plan.var plan !i))
          - 1;
      incr i
    done;
    !acc
  in
  let merged =
    List.sort compare g.gaps
    |> List.fold_left
         (fun acc (a, b) ->
           match acc with
           | (a0, b0) :: rest when a <= b0 -> (a0, max b b0) :: rest
           | _ -> (a, b) :: acc)
         []
  in
  List.fold_left
    (fun acc (a, b) ->
      if stolen_ns a b >= b - a - steal_tick_ns then
        acc
        + segments ~from:(a - (2 * timeout_ns)) ~until:b
          * (1 + ((b - a) / timeout_ns))
      else acc)
    0 merged

(* The correctness gates of one serve run, from the generator's record,
   its summary and the nodes' reports ([node_errors] lists the nodes that
   exited abnormally or reported nothing). *)
let gates ~(plan : Plan.t) ~digest_ok ~node_errors ~reports (g : gen)
    (s : summary) =
  let nodes_ok = node_errors = [] && Array.length reports = Plan.n_nodes in
  let field k = if nodes_ok then sum_field reports k else nan in
  let fanout = float_of_int plan.Plan.fanout in
  let retransmits_excused =
    nodes_ok
    && Array.for_all Fun.id
         (Array.mapi
            (fun node r ->
              List.assoc "retransmits" r
              <= float_of_int (excused_retransmits ~plan g node))
            reports)
  in
  [
    ("inputs digest (default seed) is the pinned one", digest_ok);
    ("nodes exited cleanly and reported", nodes_ok);
    ("every planned op answered, none Failed", s.failed = 0);
    ("every reply consistent with the plan", g.wrong = 0);
    ( "front door served planned ops + probes",
      field "client_ops" = float_of_int (plan.Plan.n + Plan.n_nodes) );
    ( "protocol lane = plan: msgs = sum(holders-1), 8 B ctl each",
      field "messages_sent" = fanout && field "control_bytes" = 8. *. fanout );
    ( "loopback: no drop or reconnect, retransmits only behind host steal",
      field "dropped" = 0. && field "reconnects" = 0. && retransmits_excused );
  ]

let run ~exe ~name ~mix ~seed ~seconds ~(trace : Trace.t) ~pinned_digest
    ~default_seed =
  (* inputs first, in this process, before any node exists *)
  let plan = Plan.build ~mix ~seed ~seconds in
  let digest = Plan.digest ~mix ~seed:default_seed in
  let n = plan.Plan.n in
  let run_timeout_ms = (seconds * 1000) + 60_000 in
  let start () = start_cluster ~exe ~seed ~run_timeout_ms ~dist:plan.Plan.dist in
  (* set-up is timed on several starts and reported as a median; the last
     cluster started before the load is the one that serves it *)
  let spare k =
    List.init k (fun _ ->
        let c = start () in
        stop_cluster c;
        c)
  in
  let before = spare (setups_before - 1) in
  let c = start () in
  let mark () =
    Array.iter (fun nd -> Unix.kill nd.pid Sys.sigusr1) c.nodes
  in
  let g =
    try drive ~plan ~conns:c.conns ~trace ~mark
    with e ->
      stop_cluster c;
      raise e
  in
  let reports, node_errors =
    List.partition_map
      (function Ok r -> Either.Left r | Error e -> Either.Right e)
      (Array.to_list (finish_cluster c))
  in
  let starts = (c :: before) @ spare setups_after in
  if trace.Trace.on then
    List.iteri
      (fun k s ->
        let t0 = s.started_ns in
        let t1 = t0 + s.spawn_ns and t2 = t0 + s.spawn_ns + s.answer_ns in
        let root = Trace.fresh_id trace and op = -(k + 1) in
        let keep layer start stop =
          ignore (Trace.keep trace ~parent:root ~op ~layer ~start ~stop () : int)
        in
        keep "setup.spawn" t0 t1;
        keep "setup.first_answer" t1 t2;
        ignore
          (Trace.keep trace ~id:root ~parent:(-1) ~op ~layer:"setup" ~start:t0
             ~stop:t2 ()
            : int))
      starts;
  let setups = List.map (fun s -> (s.spawn_ns, s.answer_ns)) starts in
  let reports = Array.of_list reports in
  let nodes_ok = node_errors = [] in
  let field k = if nodes_ok then sum_field reports k else nan in
  let summary = summarize plan g in
  let { lat; late; unanswered; failed } = summary in
  let sorted = Report.sorted_of lat in
  let pct = Report.percentile sorted in
  (* the end-to-end latency is the median over 20 ms windows of due time of
     each window's median: a stall (a descheduled vCPU) spoils the windows
     it hits, not the run *)
  let lat_p50 =
    let acc = ref [] and i = ref 0 in
    while !i < n do
      let w = plan.Plan.at_us.{!i} / window_us in
      let j = ref !i in
      while !j < n && plan.Plan.at_us.{!j} / window_us = w do incr j done;
      acc := Report.median (Array.to_list (Array.sub lat !i (!j - !i))) :: !acc;
      i := !j
    done;
    Report.median !acc
  in
  let answered = float_of_int (n - unanswered) in
  let per_op x = Report.ratio x answered in
  let gates =
    gates ~plan ~digest_ok:(digest = pinned_digest) ~node_errors ~reports g
      summary
  in
  let causal_ctl = control_bytes ~plan ~seed "causal-partial" in
  let setup_ns = List.map (fun (a, b) -> float_of_int (a + b)) setups in
  (* set-up is reported as CPU time: on a shared host the wall time of a
     start mostly measures how fast idle vCPUs wake *)
  let setup_cpu_ns = List.map (fun s -> float_of_int s.cpu_ns) starts in
  let node_cpu = field "cpu_s" in
  let words = float_of_int (Sys.word_size / 8) in
  let end_to_end =
    Report.fill Report.end_to_end_catalogue
      [
        ("setup_s", Report.median setup_cpu_ns /. 1e9);
        ("lat_p50_us", lat_p50);
        ("node_cpu_us_per_op", per_op (node_cpu *. 1e6));
        ("ctl_bytes_per_op.pram-partial", per_op (field "control_bytes"));
        ("ctl_bytes_per_op.causal-partial",
          float_of_int causal_ctl /. float_of_int n);
        ("job_s", float_of_int g.wall_ns /. 1e9);
      ]
  in
  let per_layer =
    if not trace.Trace.on then []
    else begin
      (* the node side, replayed in-process: once bare for the overhead
         baseline, once traced *)
      let bare = replay ~plan ~seed ~trace:Trace.off in
      let traced = replay ~plan ~seed ~trace in
      let ns_per name =
        let t = Trace.total trace name in
        Report.ratio (float_of_int t.Trace.ns) (float_of_int t.Trace.calls)
      in
      let deliver = Trace.total trace "proto.deliver" in
      let kind_p50 write =
        List.filter (fun i -> Plan.is_write plan i = write) (List.init n Fun.id)
        |> List.map (fun i -> lat.(i))
        |> Report.median
      in
      let data_frames = field "session_frames" -. field "acks_sent" in
      let late_sorted = Report.sorted_of late in
      Report.fill Report.per_layer_catalogue
        [
          ("client.lat_p90_us", pct 90.);
          ("client.lat_p99_us", pct 99.);
          ("client.lat_p999_us", pct 99.9);
          ("client.samples", answered);
          ("client.read_p50_us", kind_p50 false);
          ("client.write_p50_us", kind_p50 true);
          ("client.late_p50_us", Report.percentile late_sorted 50.);
          ("client.late_p99_us", Report.percentile late_sorted 99.);
          ("client.cpu_us_per_op", per_op (g.cpu_s *. 1e6));
          ("client.writev_per_op", per_op (float_of_int g.writev_calls));
          ("setup.wall_ms", Report.median setup_ns /. 1e6);
          ("setup.spawn_ms",
            Report.median (List.map (fun (a, _) -> float_of_int a) setups) /. 1e6);
          ("setup.first_answer_ms",
            Report.median (List.map (fun (_, b) -> float_of_int b) setups) /. 1e6);
          ("rpc.req_decode_ns", ns_per "rpc.req_decode");
          ("rpc.resp_encode_ns", ns_per "rpc.resp_encode");
          ("rpc.req_encode_ns", ns_per "rpc.req_encode");
          ("rpc.resp_decode_ns", ns_per "rpc.resp_decode");
          ("rpc.bytes_per_op", per_op (float_of_int (g.bytes_out + g.bytes_in)));
          ("proto.read_ns", ns_per "proto.read");
          ("proto.write_ns", ns_per "proto.write");
          ("proto.deliver_ns_per_msg",
            Report.ratio (float_of_int deliver.Trace.ns) (float_of_int traced.delivered));
          ("proto.msgs_per_write",
            Report.ratio (field "messages_sent") (float_of_int plan.Plan.writes));
          ("proto.payload_bytes_per_op", per_op (field "payload_bytes"));
          ("session.segs_per_frame", Report.ratio (field "segs_sent") data_frames);
          ("session.standalone_acks_per_op", per_op (field "acks_sent"));
          ("session.piggyback_share",
            Report.ratio (field "acks_piggybacked")
              (field "acks_piggybacked" +. field "acks_sent"));
          ("session.overhead_bytes_per_op", per_op (field "overhead_bytes"));
          ("session.retransmits", field "retransmits");
          ("session.first_tx_share",
            Report.ratio (field "segs_sent" -. field "retransmits") (field "segs_sent"));
          ("live.peer_frames_per_op", per_op (field "frames_sent"));
          ("live.residual_us_per_op",
            per_op (node_cpu *. 1e6) -. (float_of_int traced.node_ns /. float_of_int n /. 1e3));
          ("live.reconnects", field "reconnects");
          ("live.dropped", field "dropped");
          ("node.minor_words_per_op", per_op (field "minor_words"));
          ("node.peak_heap_mb",
            (if nodes_ok then max_field reports "top_heap_words" else nan) *. words /. 1e6);
          ("trace.overhead_share",
            float_of_int (traced.wall_ns - bare.wall_ns) /. float_of_int bare.wall_ns);
        ]
    end
  in
  {
    Report.workload = name;
    attempted = n;
    failed;
    gates;
    end_to_end;
    per_layer;
    notes =
      [
        ("inputs digest (this seed, window 0)", Plan.digest ~mix ~seed);
        ("planned ops / writes", Printf.sprintf "%d / %d" n plan.Plan.writes);
        ("set-up per start, median: wall / CPU",
          Printf.sprintf "%.3f ms / %.3f ms"
            (Report.median setup_ns /. 1e6)
            (Report.median setup_cpu_ns /. 1e6));
        ("unanswered / Failed / wrong",
          Printf.sprintf "%d / %d / %d" unanswered g.failed_outcomes g.wrong);
        ("protocol msgs / ctl B (plan: msgs, 8 B each)",
          Printf.sprintf "%.0f / %.0f (%d)" (field "messages_sent")
            (field "control_bytes") plan.Plan.fanout);
        ("retransmits / drops / reconnects",
          Printf.sprintf "%.0f / %.0f / %.0f" (field "retransmits")
            (field "dropped") (field "reconnects"));
        ("retransmits excused by host steal, per node",
          String.concat " / "
            (List.init (Array.length reports) (fun node ->
                 string_of_int (excused_retransmits ~plan g node))));
        ("host steal during the load",
          match g.steal with
          | (_, last) :: _ ->
              let first = snd (List.nth g.steal (List.length g.steal - 1)) in
              Printf.sprintf "%d ms" (last - first)
          | [] -> "unavailable");
        ("longest reply gap per node, requests in flight",
          String.concat " / "
            (Array.to_list
               (Array.map
                  (fun ns -> Printf.sprintf "%.1f ms" (float_of_int ns /. 1e6))
                  g.max_gap_ns)));
        ("lat_p90_us, all ops (not gated)",
          Printf.sprintf "%.1f us, %d samples beyond it" (pct 90.)
            (n - int_of_float (0.9 *. float_of_int n)));
        ("peak_heap_mb, largest node (not gated)",
          Printf.sprintf "%.3f MB"
            ((if nodes_ok then max_field reports "top_heap_words" else nan)
            *. words /. 1e6));
      ]
      @ List.map (fun e -> ("node error", e)) node_errors;
  }
