(** Partial-replication PRAM memory — the efficient implementation whose
    existence Theorem 2 licenses.

    A write of [x] by process [i] is applied locally, then sent {e only} to
    the other members of [C(x)].  Because the transport delivers each
    channel FIFO, every process applies process [i]'s writes (to variables
    it shares with [i]) in [i]'s program order, which is all PRAM demands.
    Reads are local and wait-free.

    Per-message control information is a single per-channel sequence number
    (8 bytes), independent of the system size — contrast with the causal
    protocols.  The mention audit of a run never leaves [C(x)] for any [x]:
    this protocol is {e efficient} in the paper's sense. *)

type msg = Update of { var : int; value : Memory.value; seq : int }

val codec : msg Repro_transport.Codec.t
(** Strict binary wire codec for {!msg}; the live backend uses it in place
    of [Marshal].  Exposed for the codec round-trip tests. *)

val create :
  ?latency:Repro_msgpass.Latency.t ->
  ?service_time:int ->
  ?sequence_guard:bool ->
  ?transport:Repro_transport.Transport.factory ->
  dist:Repro_sharegraph.Distribution.t ->
  seed:int ->
  unit ->
  Memory.t
(** Default latency {!Repro_msgpass.Latency.lan}.

    [sequence_guard] (default [true]) applies an update only when its
    per-channel sequence number is not older than the newest applied one.
    With the guard, duplication and reordering faults cannot violate PRAM
    (each replica applies a monotone subsequence of the writer's program
    order, and skipped writes can always be serialized immediately before
    the writer's next applied write); they only cost update freshness.
    Disabling the guard recovers the textbook protocol whose correctness
    rests entirely on FIFO channels — tests use this to show reordering
    then produces PRAM violations. *)
