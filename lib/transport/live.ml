module Net = Repro_msgpass.Net
module Pqueue = Repro_util.Pqueue
module Ringbuf = Repro_util.Ringbuf
module Rng = Repro_util.Rng

type config = {
  self : int;
  n : int;
  peers : Unix.sockaddr array;
  fingerprint : string;
  resilient : bool;
  incarnation : int;
}

type reply =
  dst:int ->
  control_bytes:int ->
  payload_bytes:int ->
  body_len:int ->
  emit:(Bytes.t -> int -> int) ->
  unit

(* A queue of encoded frames awaiting one scatter-gather flush: chunks of
   (pooled buffer, offset, length), with the partial-write cursor as
   (first unsent chunk, bytes of it already written). *)
module Outq = struct
  type t = {
    mutable chunks : (Bytes.t * int * int) array;
    mutable len : int;
    mutable head : int;
    mutable skip : int;
  }

  let dummy = (Bytes.empty, 0, 0)

  let create () = { chunks = Array.make 16 dummy; len = 0; head = 0; skip = 0 }

  let is_empty q = q.head >= q.len

  let unsent q = q.len - q.head

  let push q chunk =
    if q.len = Array.length q.chunks then begin
      let bigger = Array.make (2 * q.len) dummy in
      Array.blit q.chunks 0 bigger 0 q.len;
      q.chunks <- bigger
    end;
    q.chunks.(q.len) <- chunk;
    q.len <- q.len + 1

  let advance q n =
    let n = ref n in
    while !n > 0 do
      let _, _, len = q.chunks.(q.head) in
      let left = len - q.skip in
      if !n >= left then begin
        n := !n - left;
        q.head <- q.head + 1;
        q.skip <- 0
      end
      else begin
        q.skip <- q.skip + !n;
        n := 0
      end
    done

  (* recycle every chunk buffer (flushed or dropped) and empty the queue *)
  let reset q pool =
    for i = 0 to q.len - 1 do
      let b, _, _ = q.chunks.(i) in
      Wire.Pool.release pool b;
      q.chunks.(i) <- dummy
    done;
    q.len <- 0;
    q.head <- 0;
    q.skip <- 0
end

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable closed : bool;
  cq : Outq.t;  (* client replies awaiting flush on this connection *)
  mutable cq_dirty : bool;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  epoch : float;
  out_fds : Unix.file_descr option array;
  outqs : Outq.t array;  (* per-peer frames awaiting one writev *)
  mutable dirty_peers : int list;  (* peers with a nonempty outq *)
  mutable dirty_conns : conn list;
  pool : Wire.Pool.t;
  mutable conns : conn list;
  mutable read_fds : Unix.file_descr list;
      (* persistent poll set: listen_fd + live conn fds, updated only on
         accept/close *)
  timers : (int * int, unit -> unit) Pqueue.t;
  mutable timer_seq : int;
  mutable on_data_view : Wire.view -> unit;
  mutable on_client : (reply:reply -> Wire.view -> unit) option;
  mutable on_control :
    (reply:(Control.msg -> unit) -> Control.msg -> unit) option;
  mutable client_reqs : int;
  mutable cur_epoch : int;  (* configuration epoch stamped into Data frames *)
  mutable stale_epochs : int;  (* data-plane frames dropped for an old epoch *)
  hello_seen : bool array;
  done_seen : bool array;
  gone : bool array;  (* peers the supervisor announced ended for good *)
  mutable sent : int;
  mutable delivered : int;
  mutable total_control_bytes : int;
  mutable total_payload_bytes : int;
  per_node_sent : int array;
  per_node_received : int array;
  mutable draining : bool;
  mutable activity : int;  (* frames written or dispatched; timer fires excluded *)
  mutable factory_used : bool;
  mutable done_sent : bool;
  mutable reconnects : int;
  mutable dropped_frames : int;
  reconnect_pending : bool array;
  peer_inc : int array;  (* highest incarnation seen in a peer's Hello *)
  jrng : Rng.t;  (* backoff jitter; liveness only, never determinism *)
  rbuf : Bytes.t;
}

let now_ms t = int_of_float ((Unix.gettimeofday () -. t.epoch) *. 1000.)

let bind addr =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 64;
  fd

let listen_addr fd = Unix.getsockname fd

let create cfg ~listen_fd =
  if cfg.self < 0 || cfg.self >= cfg.n then invalid_arg "Live.create: bad self";
  if Array.length cfg.peers <> cfg.n then invalid_arg "Live.create: bad peers";
  (* a peer exiting first must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Unix.set_nonblock listen_fd;
  let hello_seen = Array.make cfg.n false in
  let done_seen = Array.make cfg.n false in
  hello_seen.(cfg.self) <- true;
  done_seen.(cfg.self) <- true;
  {
    cfg;
    listen_fd;
    epoch = Unix.gettimeofday ();
    out_fds = Array.make cfg.n None;
    outqs = Array.init cfg.n (fun _ -> Outq.create ());
    dirty_peers = [];
    dirty_conns = [];
    pool = Wire.Pool.create ();
    conns = [];
    read_fds = [ listen_fd ];
    timers = Pqueue.create ~cmp:compare ();
    timer_seq = 0;
    on_data_view = (fun _ -> ());
    on_client = None;
    on_control = None;
    client_reqs = 0;
    cur_epoch = 0;
    stale_epochs = 0;
    hello_seen;
    done_seen;
    gone = Array.make cfg.n false;
    sent = 0;
    delivered = 0;
    total_control_bytes = 0;
    total_payload_bytes = 0;
    per_node_sent = Array.make cfg.n 0;
    per_node_received = Array.make cfg.n 0;
    draining = false;
    activity = 0;
    factory_used = false;
    done_sent = false;
    reconnects = 0;
    dropped_frames = 0;
    reconnect_pending = Array.make cfg.n false;
    peer_inc = Array.make cfg.n 0;
    jrng = Rng.create ((cfg.self + 1) * (Unix.getpid () + 1));
    rbuf = Bytes.create 65536;
  }

let add_timer t ~delay f =
  let due = now_ms t + max delay 0 in
  t.timer_seq <- t.timer_seq + 1;
  Pqueue.push t.timers (due, t.timer_seq) f

let write_all t fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      match Unix.write fd buf off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  try
    go 0;
    true
  with
  | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
    when t.draining || t.cfg.resilient ->
    false

(* The satellite's error taxonomy, shared by the first dial and every
   reconnection: a refused or reset connection means the peer is not up
   (yet / anymore) — retry with backoff; anything else (bad address,
   unreachable network, permission) will not heal by waiting — fail fast. *)
let transient_connect_error = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EINTR | Unix.EAGAIN -> true
  | _ -> false

let dial addr =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () ->
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e

let control_frame t ~dst m = Control.frame ~src:t.cfg.self ~dst m

(* The Hello carries the config fingerprint plus the sender's
   incarnation, so peers can tell a respawned node from a fresh one. *)
let hello t =
  Control.Hello
    { fingerprint = t.cfg.fingerprint; incarnation = t.cfg.incarnation }

(* --- batched link flushes -------------------------------------------------- *)

(* Drop whatever is still queued for peer [i] (its link just broke or is
   gone): the session layer above retransmits. *)
let drop_outq t i =
  let q = t.outqs.(i) in
  if not (Outq.is_empty q) then
    t.dropped_frames <- t.dropped_frames + Outq.unsent q;
  Outq.reset q t.pool

let close_link t i =
  drop_outq t i;
  match t.out_fds.(i) with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.out_fds.(i) <- None
  | None -> ()

let rec flush_peer t i =
  let q = t.outqs.(i) in
  match t.out_fds.(i) with
  | None -> drop_outq t i
  | Some fd -> (
      match
        while not (Outq.is_empty q) do
          match
            Vecio.writev fd q.chunks ~start:q.head ~skip:q.skip
              ~count:(Outq.unsent q)
          with
          | n -> Outq.advance q n
          | exception Unix.Unix_error (EINTR, _, _) -> ()
        done
      with
      | () -> Outq.reset q t.pool
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
        when t.draining || t.cfg.resilient ->
          drop_outq t i;
          if t.cfg.resilient && not t.draining then mark_peer_lost t i)

and mark_peer_lost t i =
  close_link t i;
  schedule_reconnect t i

(* Bounded exponential backoff with jitter.  Attempts continue until the
   node's own run timeout cuts the loop, so a slow restart is survived and
   a permanent failure still terminates. *)
and schedule_reconnect t i =
  if not (t.reconnect_pending.(i) || t.gone.(i)) then begin
    t.reconnect_pending.(i) <- true;
    let rec attempt ~delay () =
      (* a peer announced gone while this attempt waited is not dialled *)
      if t.gone.(i) then t.reconnect_pending.(i) <- false
      else
        match dial t.cfg.peers.(i) with
        | Ok fd ->
            t.reconnect_pending.(i) <- false;
            t.out_fds.(i) <- Some fd;
            t.reconnects <- t.reconnects + 1;
            ignore (write_all t fd (control_frame t ~dst:i (hello t)))
        | Error e when transient_connect_error e ->
            let delay = min 500 (delay * 2) in
            add_timer t ~delay:(delay + Rng.int t.jrng 20) (attempt ~delay)
        | Error e ->
            t.reconnect_pending.(i) <- false;
            if not t.draining then
              failwith
                (Printf.sprintf "live: reconnect to node %d failed: %s" i
                   (Unix.error_message e))
    in
    add_timer t ~delay:10 (attempt ~delay:10)
  end

(* Flush a connection's pending client replies.  Accepted sockets are
   nonblocking: EAGAIN leaves the rest queued (and the conn dirty) for the
   next step; a vanished client's backlog is discarded — its problem. *)
let flush_conn t c =
  let q = c.cq in
  let rec go () =
    if not (Outq.is_empty q) then
      match
        Vecio.writev c.fd q.chunks ~start:q.head ~skip:q.skip
          ~count:(Outq.unsent q)
      with
      | n ->
          Outq.advance q n;
          go ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error (EAGAIN, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> Outq.reset q t.pool
  in
  go ();
  if Outq.is_empty q then begin
    Outq.reset q t.pool;
    c.cq_dirty <- false
  end

let flush_all t =
  (match t.dirty_peers with
  | [] -> ()
  | peers ->
      t.dirty_peers <- [];
      List.iter (flush_peer t) peers);
  match t.dirty_conns with
  | [] -> ()
  | conns ->
      t.dirty_conns <- [];
      List.iter
        (fun c ->
          if not c.closed then begin
            flush_conn t c;
            if c.cq_dirty then t.dirty_conns <- c :: t.dirty_conns
          end
          else Outq.reset c.cq t.pool)
        conns

(* Queue one encoded frame (a pooled buffer holding the complete wire
   image) for peer [dst]; it leaves in the next writev flush. *)
let enqueue_peer t dst buf total =
  match t.out_fds.(dst) with
  | None when t.gone.(dst) ->
      (* the peer ended for good: nothing to count, nothing to redial *)
      Wire.Pool.release t.pool buf
  | None ->
      Wire.Pool.release t.pool buf;
      if t.cfg.resilient then begin
        t.dropped_frames <- t.dropped_frames + 1;
        schedule_reconnect t dst
      end
      else if not t.draining then
        failwith (Printf.sprintf "live: no connection to node %d" dst)
  | Some _ ->
      let q = t.outqs.(dst) in
      if Outq.is_empty q then t.dirty_peers <- dst :: t.dirty_peers;
      Outq.push q (buf, 0, total);
      t.activity <- t.activity + 1

let refresh_peer t i =
  (* A peer announced a fresh incarnation: our outbound socket (if any)
     points at its dead predecessor.  Replace it and replay the handshake —
     including Done if our program already finished, which the respawned
     peer's barrier needs. *)
  close_link t i;
  (match dial t.cfg.peers.(i) with
  | Ok fd ->
      t.out_fds.(i) <- Some fd;
      t.reconnects <- t.reconnects + 1;
      ignore (write_all t fd (control_frame t ~dst:i (hello t)))
  | Error e when transient_connect_error e -> schedule_reconnect t i
  | Error e ->
      failwith
        (Printf.sprintf "live: reconnect to node %d failed: %s" i
           (Unix.error_message e)));
  if t.done_sent then
    match t.out_fds.(i) with
    | Some fd -> ignore (write_all t fd (control_frame t ~dst:i Control.Done))
    | None -> ()

(* The supervisor announced that peer [i] ended for good: stop waiting
   for its Hello and Done, close its link and never redial it. *)
let forget_peer t i =
  t.gone.(i) <- true;
  t.hello_seen.(i) <- true;
  t.done_seen.(i) <- true;
  close_link t i

(* Queue one complete frame on an inbound connection; it leaves in the
   next flush.  The caller counts it as activity or not. *)
let enqueue_conn t c buf total =
  if not c.cq_dirty then begin
    c.cq_dirty <- true;
    t.dirty_conns <- c :: t.dirty_conns
  end;
  Outq.push c.cq (buf, 0, total)

(* Build one client-reply frame into a pooled buffer and queue it on the
   requesting connection. *)
let conn_reply t c ~dst ~control_bytes ~payload_bytes ~body_len ~emit =
  let total = Wire.body_offset + body_len in
  let buf = Wire.Pool.acquire t.pool total in
  Wire.set_header buf ~kind:Wire.Cresp ~src:t.cfg.self ~dst ~control_bytes
    ~payload_bytes ~body_len;
  let off = emit buf Wire.body_offset in
  if off <> total then invalid_arg "live: reply emit size mismatch";
  enqueue_conn t c buf total;
  t.activity <- t.activity + 1

(* The supervisor's heartbeat says nothing about the cluster's own
   traffic: a Ping in or a Pong out is not drain activity, or a member
   pinged every 50 ms would never go quiet. *)
let heartbeat = function Control.Ping | Control.Pong _ -> true | _ -> false

let from_node t src =
  if src < 0 || src >= t.cfg.n then
    failwith (Printf.sprintf "live: frame from unknown node %d" src)

let dispatch t c (v : Wire.view) =
  let src = v.Wire.v_src in
  match v.Wire.v_kind with
  | Wire.Data ->
      from_node t src;
      t.activity <- t.activity + 1;
      (* the epoch fence: a data frame from a configuration older than
         ours (a peer that has not heard of the reconfiguration, or a
         crashed node recovering at its pre-crash epoch) is dropped and
         counted, never delivered *)
      if v.Wire.v_epoch < t.cur_epoch then t.stale_epochs <- t.stale_epochs + 1
      else t.on_data_view v
  | Wire.Control -> (
      (* control messages cross epochs unfenced: they are how a node
         learns of a newer epoch (or the supervisor spots a stale one) *)
      let m =
        try Control.of_view v
        with Codec.Bad e -> failwith ("live: corrupt control body: " ^ e)
      in
      if not (heartbeat m) then t.activity <- t.activity + 1;
      match m with
      | Control.Hello { fingerprint; incarnation } ->
          from_node t src;
          if not (String.equal fingerprint t.cfg.fingerprint) then
            failwith
              (Printf.sprintf "live: fingerprint mismatch with node %d (%S vs %S)"
                 src fingerprint t.cfg.fingerprint);
          t.hello_seen.(src) <- true;
          if t.cfg.resilient && incarnation > 0 && incarnation > t.peer_inc.(src)
          then begin
            t.peer_inc.(src) <- incarnation;
            refresh_peer t src
          end
      | Control.Done ->
          from_node t src;
          t.done_seen.(src) <- true
      | Control.Gone { node } ->
          if src = Control.supervisor && node < t.cfg.n && node <> t.cfg.self
          then forget_peer t node
      | m -> (
          (* the supervisor's own conversation: the reply goes back on
             the connection the frame arrived on, never the peer mesh *)
          match t.on_control with
          | Some handler ->
              handler m ~reply:(fun r ->
                  let buf = control_frame t ~dst:src r in
                  enqueue_conn t c buf (Bytes.length buf);
                  if not (heartbeat r) then t.activity <- t.activity + 1)
          | None -> () (* static cluster: stray control messages are inert *)))
  | Wire.Creq -> (
      (* client traffic: src is a client id, deliberately outside the node
         range, and the reply goes back on the connection the request came
         in on — never through the peer mesh *)
      t.activity <- t.activity + 1;
      t.client_reqs <- t.client_reqs + 1;
      match t.on_client with
      | Some handler ->
          handler
            ~reply:(fun ~dst ~control_bytes ~payload_bytes ~body_len ~emit ->
              conn_reply t c ~dst ~control_bytes ~payload_bytes ~body_len ~emit)
            v
      | None -> () (* no front door installed: drop, the client times out *))
  | Wire.Cresp -> () (* nodes never consume responses; tolerate strays *)

let fire_due t =
  let fired = ref false in
  let rec loop () =
    match Pqueue.peek t.timers with
    | Some ((due, _), _) when due <= now_ms t ->
        let _, f = Pqueue.pop_exn t.timers in
        fired := true;
        f ();
        loop ()
    | _ -> ()
  in
  loop ();
  !fired

let rebuild_read_fds t =
  t.conns <- List.filter (fun c -> not c.closed) t.conns;
  t.read_fds <- t.listen_fd :: List.map (fun c -> c.fd) t.conns

let accept_ready t =
  let rec loop acted =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
        let c =
          { fd; dec = Wire.decoder (); closed = false; cq = Outq.create ();
            cq_dirty = false }
        in
        t.conns <- c :: t.conns;
        t.read_fds <- fd :: t.read_fds;
        loop true
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> acted
  in
  loop false

let service_conn t c =
  let nread =
    try Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> -1
    | Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> 0
  in
  if nread < 0 then false
  else if nread = 0 then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Outq.reset c.cq t.pool;
    rebuild_read_fds t;
    (* a resilient node treats a truncated stream like a lost frame: the
       peer crashed mid-write and the session layer will resend *)
    if Wire.pending c.dec > 0 && not t.draining && not t.cfg.resilient then
      failwith "live: peer closed mid-frame";
    true
  end
  else begin
    Wire.feed c.dec t.rbuf nread;
    (* each view is parsed before the next [next_view]/[feed], so bodies
       are consumed straight out of the decoder's buffer *)
    let rec pump () =
      match Wire.next_view c.dec with
      | Ok (Some v) ->
          dispatch t c v;
          pump ()
      | Ok None -> ()
      | Error msg -> failwith ("live: corrupt stream: " ^ msg)
    in
    pump ();
    true
  end

let step t ~block =
  (* anything queued outside the loop (program sends between steps) goes
     out before we wait on the poll set *)
  flush_all t;
  let timeout =
    if not block then 0.
    else
      match Pqueue.peek t.timers with
      | Some ((due, _), _) ->
          Float.min 0.001 (Float.max 0. (float_of_int (due - now_ms t) /. 1000.))
      | None -> 0.001
  in
  let ready, _, _ =
    try Unix.select t.read_fds [] [] timeout
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  let acted = ref false in
  if List.memq t.listen_fd ready then if accept_ready t then acted := true;
  List.iter
    (fun c ->
      if (not c.closed) && List.memq c.fd ready then
        if service_conn t c then acted := true)
    t.conns;
  if fire_due t then acted := true;
  (* one writev per dirty link covers everything this step produced *)
  flush_all t;
  !acted

(* First dial, at startup: daemons come up in any order, so refused/reset
   connections are retried on a bounded exponential backoff with jitter
   (starting at 10 ms, capped at 500 ms); any other error fails fast. *)
let connect_peer t ~deadline i =
  let rec attempt ~delay =
    match dial t.cfg.peers.(i) with
    | Ok fd -> fd
    | Error e when transient_connect_error e ->
        if now_ms t > deadline then
          failwith (Printf.sprintf "live: cannot connect to node %d" i);
        Unix.sleepf (float_of_int (delay + Rng.int t.jrng 10) /. 1000.);
        attempt ~delay:(min 500 (delay * 2))
    | Error e ->
        failwith
          (Printf.sprintf "live: cannot connect to node %d: %s" i
             (Unix.error_message e))
  in
  let fd = attempt ~delay:10 in
  t.out_fds.(i) <- Some fd;
  ignore (write_all t fd (control_frame t ~dst:i (hello t)))

let all_hello t = Array.for_all Fun.id t.hello_seen

let all_done t = Array.for_all Fun.id t.done_seen

let wait_peers t ~timeout_ms =
  let deadline = now_ms t + timeout_ms in
  for i = 0 to t.cfg.n - 1 do
    if i <> t.cfg.self then connect_peer t ~deadline i
  done;
  while not (all_hello t) do
    if now_ms t > deadline then failwith "live: timed out waiting for hellos";
    ignore (step t ~block:true)
  done

let finish_program t =
  flush_all t;
  t.done_sent <- true;
  for i = 0 to t.cfg.n - 1 do
    if i <> t.cfg.self then
      match t.out_fds.(i) with
      | Some fd -> ignore (write_all t fd (control_frame t ~dst:i Control.Done))
      | None -> ()
  done

let drain t ~quiet_ms ~max_ms =
  t.draining <- true;
  let started = now_ms t in
  let last = ref (now_ms t) in
  let quiet = ref false in
  while not !quiet do
    let before = t.activity in
    ignore (step t ~block:true);
    if t.activity <> before then last := now_ms t;
    let now = now_ms t in
    if now - !last >= quiet_ms || now - started >= max_ms then quiet := true
  done

let close t =
  flush_all t;
  let shut fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Array.iter (Option.iter shut) t.out_fds;
  List.iter (fun c -> if not c.closed then shut c.fd) t.conns;
  t.conns <- [];
  t.read_fds <- [];
  shut t.listen_fd

let stats t : Net.stats =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped_frames;
    duplicated = 0;
    total_control_bytes = t.total_control_bytes;
    total_payload_bytes = t.total_payload_bytes;
    retransmits = 0;
    dups_suppressed = 0;
    reconnects = t.reconnects;
    overhead_bytes = 0;
    per_node_sent = Array.copy t.per_node_sent;
    per_node_received = Array.copy t.per_node_received;
  }

let set_client_handler t h = t.on_client <- Some h

let client_reqs t = t.client_reqs

let set_control_handler t h = t.on_control <- Some h

let set_epoch t e =
  if e < 0 || e > 0xFFFF then invalid_arg "Live.set_epoch";
  if e > t.cur_epoch then t.cur_epoch <- e

let current_epoch t = t.cur_epoch

let stale_epochs t = t.stale_epochs

(* Data bodies: 4-byte send timestamp, then the codec-encoded message,
   parsed in place on receive. *)
let send_time_bytes = 4

let oracle_env () =
  match Sys.getenv_opt "REPRO_CODEC_ORACLE" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let factory t =
  {
    Transport.create =
      (fun (type msg) ?codec n : msg Transport.t ->
        if t.factory_used then invalid_arg "Live.factory: already used";
        if n <> t.cfg.n then
          invalid_arg
            (Printf.sprintf "Live.factory: protocol wants %d nodes, cluster has %d"
               n t.cfg.n);
        let c =
          match codec with
          | Some c -> c
          | None -> invalid_arg "Live.factory: the protocol has no message codec"
        in
        t.factory_used <- true;
        let self = t.cfg.self in
        let handler : (msg Net.envelope -> unit) ref = ref (fun _ -> ()) in
        let tracing = ref false in
        let trace_buf : msg Net.event Ringbuf.t = Ringbuf.create () in
        let oracle = oracle_env () in
        let deliver (env : msg Net.envelope) =
          t.delivered <- t.delivered + 1;
          t.per_node_received.(self) <- t.per_node_received.(self) + 1;
          if !tracing then Ringbuf.push_back trace_buf (Net.Delivered env);
          !handler env
        in
        t.on_data_view <-
          (fun v ->
            let send_time, msg =
              let limit = v.Wire.v_off + v.Wire.v_len in
              match
                let st, pos = Codec.get_i32 v.Wire.v_buf v.Wire.v_off limit in
                let m, pos = c.Codec.parse v.Wire.v_buf pos limit in
                if pos <> limit then raise (Codec.Bad "trailing bytes");
                (st, m)
              with
              | r -> r
              | exception Codec.Bad e -> failwith ("live: corrupt data body: " ^ e)
            in
            deliver
              {
                src = v.Wire.v_src;
                dst = v.Wire.v_dst;
                send_time;
                deliver_time = now_ms t;
                control_bytes = v.Wire.v_control_bytes;
                payload_bytes = v.Wire.v_payload_bytes;
                msg;
              });
        {
          Transport.n_nodes = t.cfg.n;
          scope = Transport.Node self;
          send =
            (fun ~src ~dst ~control_bytes ~payload_bytes msg ->
              if src <> self then
                invalid_arg
                  (Printf.sprintf "live: node %d cannot send as node %d" self
                     src);
              if dst < 0 || dst >= t.cfg.n then invalid_arg "live: bad dst";
              let now = now_ms t in
              t.sent <- t.sent + 1;
              t.total_control_bytes <- t.total_control_bytes + control_bytes;
              t.total_payload_bytes <- t.total_payload_bytes + payload_bytes;
              t.per_node_sent.(self) <- t.per_node_sent.(self) + 1;
              if !tracing then
                Ringbuf.push_back trace_buf
                  (Net.Sent
                     {
                       src;
                       dst;
                       send_time = now;
                       deliver_time = now;
                       control_bytes;
                       payload_bytes;
                       msg;
                     });
              if dst = self then begin
                (* self-sends take the timer queue, like the simulator:
                   no synchronous shortcut past messages in flight, and
                   no serialization either *)
                t.activity <- t.activity + 1;
                add_timer t ~delay:0 (fun () ->
                    t.activity <- t.activity + 1;
                    deliver
                      {
                        src;
                        dst;
                        send_time = now;
                        deliver_time = now_ms t;
                        control_bytes;
                        payload_bytes;
                        msg;
                      })
              end
              else begin
                let body_len = send_time_bytes + c.Codec.size msg in
                let total = Wire.body_offset + body_len in
                let buf = Wire.Pool.acquire t.pool total in
                Wire.set_header buf ~kind:Wire.Data ~src ~dst
                  ~epoch:t.cur_epoch ~control_bytes ~payload_bytes ~body_len;
                let off = Codec.put_i32 buf Wire.body_offset now in
                let off = c.Codec.emit buf off msg in
                if off <> total then
                  invalid_arg "live: codec emit size mismatch";
                if oracle then begin
                  (* REPRO_CODEC_ORACLE: decode what we just encoded and
                     compare against the original, structurally *)
                  let m', p =
                    c.Codec.parse buf (Wire.body_offset + send_time_bytes)
                      total
                  in
                  if
                    p <> total
                    || not
                         (String.equal
                            (Marshal.to_string msg [])
                            (Marshal.to_string m' []))
                  then failwith "live: codec oracle mismatch"
                end;
                enqueue_peer t dst buf total
              end);
          set_handler = (fun node f -> if node = self then handler := f);
          schedule = (fun ~delay f -> add_timer t ~delay f);
          step = (fun () -> step t ~block:true);
          quiesce =
            (fun () ->
              while step t ~block:false do
                ()
              done);
          now = (fun () -> now_ms t);
          stats = (fun () -> stats t);
          set_tracing = (fun flag -> tracing := flag);
          trace = (fun () -> Ringbuf.to_list trace_buf);
        })
  }
