(** Unix/TCP backend for {!Transport}: one OS process per node.

    A live node binds a listening socket, dials every peer (outbound
    sockets carry this node's frames; accepted sockets carry the peers'),
    and exchanges {!Wire} frames.  Delivery order per directed link is
    FIFO — TCP gives the same per-channel guarantee the simulator does —
    but cross-channel interleaving is real wall-clock nondeterminism.

    Lifecycle of a node process:

    + {!bind} a listener (or inherit one pre-bound by the cluster harness),
    + {!create} the runtime, {!val-factory} → hand to the protocol registry,
    + {!wait_peers} — dial everyone, exchange [Hello] fingerprints
      ({!Control.msg}),
    + run the node program against the protocol's API,
    + {!finish_program} — broadcast [Done],
    + keep {!step}ping until {!all_done}, then {!drain} a quiet window so
      late handler-to-handler traffic (acks, forwards, gossip hops)
      settles, then snapshot results and {!close}.

    The declared control/payload byte counts travel inside each frame
    header, so a live node's {!Transport} stats aggregate exactly the
    numbers the simulator would — encoding overhead never leaks into
    the accounting.

    {b Hot path.}  With the protocol's message codec (see
    {!Transport.factory}), a send emits its body straight into a pooled frame buffer (4-byte send
    timestamp + codec image; zero per-message allocation at steady
    state), frames queue per destination link, and each event-loop turn
    flushes a whole link in one [writev(2)] — with partial-write
    resumption and EINTR retry — before recycling the buffers.  Receives
    parse message bodies in place out of the streaming decoder
    ({!Wire.next_view}).  The poll set is persistent: the fd list fed to
    [select] changes only on accept/close, not per iteration. *)

type config = {
  self : int;  (** this process's node id, [0 <= self < n] *)
  n : int;
  peers : Unix.sockaddr array;
      (** length [n]; [peers.(self)] is ignored (self-sends never touch a
          socket — they go through the timer queue, like the simulator's
          no-synchronous-shortcut rule). *)
  fingerprint : string;
      (** Carried in [Hello] frames; any mismatch between two nodes'
          fingerprints (protocol, workload, size, seed) aborts the run
          instead of decoding foreign bytes. *)
  resilient : bool;
      (** When on, a broken peer link is survived instead of fatal: the
          frame in flight is dropped (counted in [stats.dropped]; a
          {!Session} layer above retransmits), the socket is redialed on a
          bounded exponential backoff with jitter, and a peer announcing a
          fresh incarnation gets our [Hello] (and [Done], if already sent)
          replayed so its restart barrier completes.  Off, behaviour is
          exactly the pre-chaos hard-abort semantics. *)
  incarnation : int;
      (** 0 for a first launch; a respawned node advertises its restart
          count in its [Hello] so peers refresh their outbound links. *)
}

type t
(** The untyped runtime: sockets, streaming decoders, buffer pool, link
    out-queues, timer queue, counters.  The message type appears only in
    the {!Transport.t} view returned by {!val-factory}. *)

val bind : Unix.sockaddr -> Unix.file_descr
(** Socket + [SO_REUSEADDR] + bind + listen.  Bind to port 0 to let the
    kernel pick; recover the address with {!listen_addr}. *)

val listen_addr : Unix.file_descr -> Unix.sockaddr

val dial : Unix.sockaddr -> (Unix.file_descr, Unix.error) result
(** A blocking TCP connect with [TCP_NODELAY] set; the socket is closed
    again on error. *)

val create : config -> listen_fd:Unix.file_descr -> t
(** Takes ownership of [listen_fd].  Ignores [SIGPIPE] process-wide (a
    dead peer must surface as a catchable error, not a kill). *)

val factory : t -> Transport.factory
(** Single-use: the factory encodes at the frame boundary, so binding it
    to two different message types would alias the wire.  Second use
    raises [Invalid_argument]; so does [create ~n] with the wrong [n].
    The resulting transport has [scope = Node self]; its [send] refuses
    [src <> self] and its [set_handler] ignores installs for other nodes
    (whole-instance protocols install all [n] — only ours is live).
    [Data] bodies are encoded with the codec passed through the factory;
    [create] without one raises [Invalid_argument].
    [REPRO_CODEC_ORACLE=1] additionally cross-checks every encoded body
    against a decode of itself (tests). *)

val wait_peers : t -> timeout_ms:int -> unit
(** Dial every peer, send [Hello], and pump until every peer's [Hello] has
    arrived.  Refused/reset connections are retried on a bounded
    exponential backoff with jitter (daemons may start in any order); any
    other [Unix_error] fails fast — waiting will not fix a bad address.
    @raise Failure on timeout or fingerprint mismatch. *)

val step : t -> block:bool -> bool
(** Accept/read/dispatch what is ready and fire due timers, blocking at
    most ~1 ms when [block] and nothing is ready.  Pending link queues are
    flushed (one [writev] per dirty link) on entry and again after
    dispatch, so every frame produced in a turn leaves in that turn.
    [true] when any timer fired or socket progressed. *)

val finish_program : t -> unit
(** Broadcast [Done]: this node's program (its workload slice) has
    finished issuing operations.  Its handlers stay live.  Pending data
    frames are flushed first, so [Done] never overtakes them. *)

val all_done : t -> bool
(** Every peer's [Done] has been seen, or the peer was announced
    [Gone]. *)

val drain : t -> quiet_ms:int -> max_ms:int -> unit
(** Serve until no frame has been sent or delivered for [quiet_ms]
    (bare timer fires don't count as activity — a retransmission timer
    with an empty window would otherwise keep the node up forever — and
    neither do heartbeat [Ping]s and [Pong]s nor sends to a peer
    announced [Gone]), or until [max_ms] has elapsed.  While draining, send failures are
    non-fatal: peers exit their own quiet windows at different times. *)

val now_ms : t -> int
(** Milliseconds since {!create}. *)

val stats : t -> Repro_msgpass.Net.stats
(** Wire-level counters: frames sent/delivered, declared bytes, frames
    dropped on broken links ([dropped]) and [reconnects].  The factory's
    transport view reports the same record. *)

type reply =
  dst:int ->
  control_bytes:int ->
  payload_bytes:int ->
  body_len:int ->
  emit:(Bytes.t -> int -> int) ->
  unit
(** Send one [Cresp] frame back on the requesting connection: [emit] is
    handed a buffer and the body start offset and must return the offset
    past exactly [body_len] written bytes — the body goes straight into a
    pooled frame, no intermediate string.  Replies queue on the
    connection and flush batched (one [writev] per turn). *)

val set_client_handler : t -> (reply:reply -> Wire.view -> unit) -> unit
(** Install the client front door: every [Creq] frame read off any
    accepted connection is handed to the handler as a zero-copy
    {!Wire.view} (parse the body before returning — the view dies with
    the next decoder feed) together with a {!reply} that writes back on
    {e that} connection.  Client frames bypass the peer-id check (their
    [src] is a client id above the node range) and never enter the
    protocol transport, so peer-level accounting is untouched.  Without a
    handler, [Creq] frames are dropped.  Replies to vanished clients are
    discarded silently. *)

val client_reqs : t -> int
(** [Creq] frames dispatched so far. *)

(** {1 Control plane}

    Every frame that is neither protocol data nor client RPC is one
    {!Control.msg} in a [Control] frame, decoded once, in place; a body
    that does not decode fails the node as a corrupt [Data] body does.
    Control messages ride the same sockets as everything else but never
    enter the transport or its accounting, and they cross epochs freely
    (they are how nodes {e learn} of a newer epoch).  The epoch fence
    lives here, at the seam: every outgoing [Data] frame is stamped with
    {!current_epoch}, and an incoming [Data] frame stamped older is
    dropped and counted in {!stale_epochs} — a node that missed a
    reconfiguration cannot corrupt post-change state.

    - [Hello] and [Done] must come from a node id; they drive
      {!wait_peers} and {!all_done}.
    - [Gone {node}] is obeyed only from {!Control.supervisor}: [node]
      counts as greeted and done, its link is closed and never redialled,
      and later sends to it are released without counting as drain
      activity, so a node whose peer ended for good still finishes.
    - Every other message goes to the handler installed with
      {!set_control_handler}.

    [Ping] in and [Pong] out are the supervisor's heartbeat, not the
    cluster's traffic: neither counts as {!drain} activity. *)

val set_control_handler :
  t -> (reply:(Control.msg -> unit) -> Control.msg -> unit) -> unit
(** Install the membership runtime.  [reply] queues a message back on
    the connection the triggering frame arrived on — the supervisor's
    control channel is an inbound connection, not a peer link.  Without
    a handler, these messages are inert (static clusters). *)

val set_epoch : t -> int -> unit
(** Raise this node's configuration epoch (monotonic: lowering is a
    no-op).  @raise Invalid_argument outside [0, 0xFFFF]. *)

val current_epoch : t -> int

val stale_epochs : t -> int
(** [Data] frames rejected by the epoch fence so far. *)

val close : t -> unit
