module Rpc = Repro_transport.Rpc
module Wire = Repro_transport.Wire
module Vecio = Repro_transport.Vecio
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Distribution = Repro_sharegraph.Distribution

type event = { at_us : int; target : int; request : Rpc.request }

(* Client ids live above the node-id range; 0x8000 leaves room for 2^15
   nodes below and 2^15 clients within Wire's u16 src field. *)
let client_src id =
  if id < 0 || id > 0x7FFF then invalid_arg "Client: bad client id";
  0x8000 lor id

(* --- deterministic open-loop schedule -------------------------------------- *)

let plan ~mix ~dist ~rate ~duration_ms ~seed =
  if rate <= 0.0 then invalid_arg "Client.plan: rate must be positive";
  let rng = Rng.create seed in
  let n_procs = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  let vars_of =
    Array.init n_procs (fun p -> Array.of_list (Distribution.vars_of dist p))
  in
  let holders =
    Array.init n_vars (fun x -> Array.of_list (Distribution.holders dist x))
  in
  let mean_us = 1e6 /. rate in
  let duration_us = duration_ms * 1000 in
  let value = ref 0 in
  let events = ref [] in
  let clock = ref 0.0 in
  let running = ref true in
  while !running do
    clock := !clock +. Rng.exponential rng mean_us;
    let at_us = int_of_float !clock in
    if at_us >= duration_us then running := false
    else begin
      let u = Rng.float rng 1.0 in
      let ev =
        if u < mix.Mix.read then
          let var = Rng.int rng n_vars in
          {
            at_us;
            target = Rng.pick rng holders.(var);
            request = Rpc.Op (Rpc.Read { var });
          }
        else if u < mix.Mix.read +. mix.Mix.write then begin
          let var = Rng.int rng n_vars in
          incr value;
          {
            at_us;
            target = Rng.pick rng holders.(var);
            request = Rpc.Op (Rpc.Write { var; value = !value });
          }
        end
        else begin
          (* scan: consecutive variables of one replica, wrapped *)
          let target = Rng.int rng n_procs in
          let vars = vars_of.(target) in
          if Array.length vars = 0 then
            let var = Rng.int rng n_vars in
            {
              at_us;
              target = Rng.pick rng holders.(var);
              request = Rpc.Op (Rpc.Read { var });
            }
          else begin
            let len = Array.length vars in
            let k = Stdlib.min mix.Mix.scan_len len in
            let off = Rng.int rng len in
            let ops =
              Array.init k (fun i -> Rpc.Read { var = vars.((off + i) mod len) })
            in
            { at_us; target; request = Rpc.Batch ops }
          end
        end
      in
      events := ev :: !events
    end
  done;
  Array.of_list (List.rev !events)

(* --- wall-clock runner ------------------------------------------------------ *)

type report = {
  attempted_ops : int;
  completed_ops : int;
  failed_ops : int;
  unsent : int;
  timeouts : int;
  bytes_out : int;
  bytes_in : int;
  send_span_us : int;
  completion_span_us : int;
  lat_us : Stats.t;
  read_us : Stats.t;
  write_us : Stats.t;
  scan_us : Stats.t;
}

type conn = { fd : Unix.file_descr; dec : Wire.decoder; mutable alive : bool }

let transient = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EINTR | Unix.EAGAIN -> true
  | _ -> false

(* Nodes come up in any order relative to clients: retry refused dials on
   a bounded backoff until the connect deadline. *)
let dial_retry addr ~deadline =
  let rec attempt ~delay =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
        Some fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if (not (transient e)) || Unix.gettimeofday () > deadline then None
        else begin
          Unix.sleepf (float_of_int delay /. 1000.);
          attempt ~delay:(Stdlib.min 500 (delay * 2))
        end
  in
  attempt ~delay:10

let kind_of = function
  | Rpc.Op (Rpc.Read _) -> `R
  | Rpc.Op (Rpc.Write _) -> `W
  | Rpc.Batch _ -> `S

let run ~client_id ~peers ~events ~drain_plan ~duration_ms ~grace_ms
    ?(connect_timeout_ms = 10_000) () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let start = Unix.gettimeofday () in
  let now_us () = int_of_float ((Unix.gettimeofday () -. start) *. 1e6) in
  let deadline = start +. (float_of_int connect_timeout_ms /. 1000.) in
  let conns =
    Array.map
      (fun addr ->
        match dial_retry addr ~deadline with
        | Some fd -> Some { fd; dec = Wire.decoder (); alive = true }
        | None -> None)
      peers
  in
  let src = client_src client_id in
  let rbuf = Bytes.create 65536 in
  let outstanding : (int, float * [ `R | `W | `S ]) Hashtbl.t =
    Hashtbl.create 1024
  in
  let attempted = ref 0 and completed = ref 0 and failed = ref 0 in
  let unsent = ref 0 and bytes_out = ref 0 and bytes_in = ref 0 in
  let lat_us = Stats.create_sketch () in
  let read_us = Stats.create_sketch () in
  let write_us = Stats.create_sketch () in
  let scan_us = Stats.create_sketch () in
  let next_id = ref 0 in
  let on_reply id outcomes =
    match Hashtbl.find_opt outstanding id with
    | None -> ()
    | Some (t0, kind) ->
        Hashtbl.remove outstanding id;
        let lat = (Unix.gettimeofday () -. t0) *. 1e6 in
        Stats.add lat_us lat;
        Stats.add
          (match kind with `R -> read_us | `W -> write_us | `S -> scan_us)
          lat;
        completed := !completed + Array.length outcomes;
        Array.iter
          (function Rpc.Failed _ -> incr failed | Rpc.Got _ | Rpc.Stored -> ())
          outcomes
  in
  let kill c =
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let service c =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> kill c
    | 0 -> kill c
    | nread -> (
        bytes_in := !bytes_in + nread;
        Wire.feed c.dec rbuf nread;
        (* responses are parsed straight out of the decoder buffer *)
        let step () =
          match Wire.next_view c.dec with
          | Ok (Some v) ->
              (match v.Wire.v_kind with
              | Wire.Cresp -> (
                  match
                    Rpc.decode_response_at v.Wire.v_buf ~pos:v.Wire.v_off
                      ~len:v.Wire.v_len
                  with
                  | Ok (id, outcomes) -> on_reply id outcomes
                  | Error _ -> kill c)
              | _ -> () (* a well-behaved node sends nothing else *));
              true
          | Ok None -> false
          | Error _ ->
              kill c;
              false
        in
        let rec pump () = if step () && c.alive then pump () in
        pump ())
  in
  let live_conns () =
    Array.to_list conns
    |> List.filter_map (fun c ->
           match c with Some c when c.alive -> Some c | _ -> None)
  in
  let poll timeout =
    match live_conns () with
    | [] -> Unix.sleepf timeout
    | live -> (
        let fds = List.map (fun c -> c.fd) live in
        match Unix.select fds [] [] timeout with
        | ready, _, _ ->
            List.iter (fun c -> if List.memq c.fd ready then service c) live
        | exception Unix.Unix_error (EINTR, _, _) -> ())
  in
  (* Requests due in the same scheduling burst are emitted into pooled
     frames, queued per target, and flushed with one writev per connection
     — one syscall covers the burst instead of one per request. *)
  let pool = Wire.Pool.create () in
  let pending = Array.map (fun _ -> ref []) conns in
  let pending_n = Array.map (fun _ -> ref 0) conns in
  let rec enqueue (ev : event) =
    match conns.(ev.target) with
    | Some c when c.alive ->
        let id = !next_id in
        incr next_id;
        let body_len = Rpc.request_body_len ev.request in
        let total = Wire.body_offset + body_len in
        let buf = Wire.Pool.acquire pool total in
        ignore (Rpc.emit_request buf Wire.body_offset ~id ev.request : int);
        let payload = Rpc.request_payload_bytes ev.request in
        Wire.set_header buf ~kind:Wire.Creq ~src ~dst:ev.target
          ~control_bytes:(body_len - payload) ~payload_bytes:payload ~body_len;
        pending.(ev.target) := (buf, 0, total) :: !(pending.(ev.target));
        incr pending_n.(ev.target);
        attempted := !attempted + Array.length (Rpc.ops ev.request);
        Hashtbl.replace outstanding id (Unix.gettimeofday (), kind_of ev.request);
        (* flush once the queue fills a writev: keeps the burst inside the
           pool's per-class cap so steady state recycles instead of
           allocating, no matter how far the schedule has fallen behind *)
        if !(pending_n.(ev.target)) >= Vecio.max_iov then flush_target ev.target
    | _ -> incr unsent
  and flush_target ti =
    match !(pending.(ti)) with
    | [] -> ()
    | rev -> (
        pending.(ti) := [];
        pending_n.(ti) := 0;
        let chunks = Array.of_list (List.rev rev) in
        let count = Array.length chunks in
        (match conns.(ti) with
        | Some c when c.alive ->
            (* blocking fd: resume partial writes until the queue drains *)
            let rec advance start skip n =
              if n = 0 then (start, skip)
              else
                let _, _, l = chunks.(start) in
                let left = l - skip in
                if n >= left then advance (start + 1) 0 (n - left)
                else (start, skip + n)
            in
            let rec go start skip =
              if start < count then
                match
                  Vecio.writev c.fd chunks ~start ~skip ~count:(count - start)
                with
                | n ->
                    bytes_out := !bytes_out + n;
                    let start, skip = advance start skip n in
                    go start skip
                | exception Unix.Unix_error (EINTR, _, _) -> go start skip
                | exception Unix.Unix_error _ -> kill c
            in
            go 0 0
        | _ -> unsent := !unsent + count);
        Array.iter (fun (b, _, _) -> Wire.Pool.release pool b) chunks)
  in
  let flush_pending () =
    for ti = 0 to Array.length pending - 1 do
      flush_target ti
    done
  in
  (* Flow control: past this many unanswered ops, stop submitting and
     drain replies.  Unsaturated it never binds (replies come back long
     before the window fills); past saturation it bounds kernel socket
     buffer occupancy in both directions, which is what keeps a node
     whose reply write blocks from deadlocking against a client that
     would otherwise never read between submissions. *)
  let max_outstanding = 1024 in
  let n_events = Array.length events in
  let duration_us = duration_ms * 1000 in
  let i = ref 0 in
  let cut = ref false in
  while !i < n_events && not !cut do
    let now = now_us () in
    if (not drain_plan) && now >= duration_us then cut := true
    else if Hashtbl.length outstanding >= max_outstanding then begin
      flush_pending ();
      poll 0.005
    end
    else if events.(!i).at_us <= now then begin
      (* drain the whole due burst before flushing: these frames coalesce
         into the same writev calls *)
      while
        !i < n_events
        && events.(!i).at_us <= now
        && Hashtbl.length outstanding < max_outstanding
      do
        enqueue events.(!i);
        incr i
      done;
      flush_pending ()
    end
    else
      poll (float_of_int (Stdlib.min (events.(!i).at_us - now) 20_000) /. 1e6)
  done;
  flush_pending ();
  let send_span_us = now_us () in
  unsent := !unsent + (n_events - !i);
  (* grace: collect stragglers for in-flight requests, then give up *)
  let grace_deadline = now_us () + (grace_ms * 1000) in
  while Hashtbl.length outstanding > 0 && now_us () < grace_deadline do
    poll 0.01
  done;
  let completion_span_us = now_us () in
  let timeouts =
    Hashtbl.fold
      (fun _ (_, _) acc -> acc + 1)
      outstanding 0
  in
  Array.iter (function Some c when c.alive -> kill c | _ -> ()) conns;
  {
    attempted_ops = !attempted;
    completed_ops = !completed;
    failed_ops = !failed;
    unsent = !unsent;
    timeouts;
    bytes_out = !bytes_out;
    bytes_in = !bytes_in;
    send_span_us;
    completion_span_us;
    lat_us;
    read_us;
    write_us;
    scan_us;
  }
