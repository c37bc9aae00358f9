(** Process supervision for the live tier: one forked child per slot,
    each marshalling its result back to the parent over a report pipe.
    {!Cluster.run}, {!Reconfig.run} and [Repro_loadgen.Harness.run] all
    fork through this module, launch their nodes on its loopback
    listeners ({!loopback}, {!spawn_node}) and turn the slots' endings
    into one result or one error text ({!outcome}); {!Node.run} and
    {!Member.run} arm their WAL crash points through {!arm_dcrash}.

    {b Child contract.}  A slot's body runs in the forked child.  A
    returned value is marshalled over the pipe and the child exits 0.
    {!Repro_transport.Chaos.Injected_crash} makes the child [_exit 42]
    with no report and no cleanup, like a real crash; {!Crash} becomes a
    crashed report carrying its message, and any other exception a
    crashed report carrying [Printexc.to_string] of it.

    {b Collection.}  {!step} drains every report pipe, together with any
    descriptors the caller adds, in one [select] — never a blocking read
    on one child, so a report larger than a pipe buffer cannot deadlock
    the collection order — and reaps exits with [WNOHANG].

    {b Respawn.}  Exit 42 respawns the slot after the chaos plan's
    restart delay for that node (its [crash] or [dcrash] clause), once,
    with incarnation 1.  With no restart scheduled the slot ends as
    {!Injected_crash}.

    {b Watchdog.}  Past the deadline {!running} turns false; {!stop} then
    kills and reaps the children still running, closes each open pipe
    once, and ends every unsettled slot as {!Put_down}.

    {b Control.}  Each node slot ({!spawn_node}) has a control
    connection to its listener, dialled at spawn, every 200 ms while the
    slot runs without one, and at once after a respawn; children close
    the ones they inherit.  When a node slot ends as {!Crashed}, or as
    {!Injected_crash} with no restart, every other node slot is sent
    [Gone] for it, again on each later connect, so its peers stop
    waiting for it.

    Forking must precede any OCaml 5 domain creation in the parent. *)

exception Crash of string
(** The runtimes' own failure ({!Node.Crash} and {!Member.Crash} are this
    exception): a crashed report carrying the message. *)

type 'r ending =
  | Finished of 'r  (** The body returned; its result. *)
  | Crashed of string
      (** The body raised, or the child exited without a readable report
          (["exited without reporting (exit 3)"]). *)
  | Injected_crash  (** Exit 42 with no restart scheduled. *)
  | Put_down  (** Still running (or awaiting a respawn) at the deadline. *)

type 'r t

val create :
  deadline_ms:int ->
  ?chaos:Repro_msgpass.Fault.Plan.t ->
  ?on_respawn:(int -> unit) ->
  ?on_control:(int -> Repro_transport.Control.msg -> unit) ->
  unit ->
  'r t
(** A supervisor with no slots yet.  The watchdog deadline is
    [deadline_ms] from now.  [chaos] supplies the restart delays;
    [on_respawn slot] runs in the parent just before each respawn;
    [on_control node msg] for each message node [node] writes back.
    Ignores [SIGPIPE]: a write to an exited node fails, it does not kill. *)

val spawn : 'r t -> (incarnation:int -> 'r) -> unit
(** Flush [stdout] and [stderr] and fork a child running the body with
    incarnation 0, in a new slot.  Slots are numbered 0, 1, … in spawn
    order; the chaos plan's node [i] is slot [i].  A respawn runs the
    same body again. *)

val step : 'r t -> ?fds:Unix.file_descr list -> timeout:float -> unit ->
  Unix.file_descr list
(** One supervision turn: launch the respawns and redials that have come
    due, wait up to [timeout] seconds (less when a respawn falls due
    sooner) for any report pipe, control connection or any of [fds] to be
    readable, drain the readable pipes and connections, reap, and settle
    the slots whose child has exited and whose pipe has closed.  Returns
    the members of [fds] that are readable. *)

val send : 'r t -> node:int -> Repro_transport.Control.msg -> bool
(** Write one message on node [node]'s control connection; [true] when
    it went to a live connection. *)

val running : 'r t -> bool
(** Some slot has not ended and the deadline has not passed. *)

val ending : 'r t -> int -> 'r ending option
(** [None] while the slot's child runs or awaits its respawn. *)

val awaiting_respawn : 'r t -> int -> bool

val restarts : 'r t -> int
(** Respawns launched, over all slots. *)

val stop : 'r t -> 'r ending array
(** Put down the children still running (kill, then reap), close each
    pipe and connection still open, and return every slot's ending in
    slot order. *)

val wait : 'r t -> 'r ending array
(** [step] while {!running}, then {!stop}. *)

(** {1 Loopback clusters} *)

val loopback : int -> Unix.file_descr array * Unix.sockaddr array
(** [loopback n]: [n] listening sockets on ephemeral loopback ports
    ({!Repro_transport.Live.bind}) and their addresses, node [i]'s at
    index [i]. *)

val spawn_node :
  'r t -> Unix.file_descr array -> self:int -> (incarnation:int -> 'r) -> unit
(** {!spawn} node [self]'s body; the child first closes every listener
    but [listeners.(self)], so a node accepts only on its own socket.  The
    slot is the next one in spawn order: callers with a chaos plan spawn
    node [i] as slot [i].  The caller may close its listener copies after. *)

val close_all : Unix.file_descr list -> unit
(** Close each descriptor, ignoring errors. *)

val arm_dcrash :
  self:int -> incarnation:int -> Repro_msgpass.Fault.Plan.t option -> unit
(** On a first incarnation, arm the plan's [dcrash] clause for node
    [self] ({!Repro_durable.Fsio.Crashpoint.arm}): the named point in the
    WAL write path raises {!Repro_transport.Chaos.Injected_crash}.  A
    respawn is never re-armed. *)

val outcome : name:(int -> string) -> 'r ending array -> ('r array, string) result
(** Every slot's result when all of them finished.  Otherwise one line
    [name i ^ ": " ^ text] per slot that did not: first the slots that
    failed on their own (the crash message, or
    ["injected crash (no restart scheduled)"]), then the ones put down
    (["put down by the supervisor watchdog"]), each group in slot order.
    The text starts with ["wedged: "] when any slot was put down. *)
