(** Reliable per-link session layer over any {!Transport} backend.

    The one go-back-N scheme in the repository, as a reusable wrapper
    (pram-reliable is pram-partial over it, see {!stack}):
    per-directed-link sequence numbers, cumulative acks,
    retransmission timers with exponential backoff and seeded jitter, and
    duplicate suppression.  Any protocol can opt in by wrapping its factory
    — the wrapped transport presents the exact {!Transport.t} interface, so
    protocol code is unchanged.

    {b Acks.}  Receivers do not ack every segment.  An arrival marks the
    link as {e owing} a cumulative ack, which then travels for free in the
    header of the next data frame going back (piggybacking); only if the
    reverse direction stays idle for [ack_delay] ticks does a standalone
    [Ack] frame go out.  On request/reply traffic this removes almost every
    standalone ack from the wire, and the saving is visible directly in
    [overhead_bytes].

    {b Coalescing.}  With [coalesce = k > 1], a send enqueues its segment
    and schedules a zero-delay flush; every segment the protocol produces
    before the flush runs (one timer-queue turn — on the live backend, one
    socket pump) is packed into shared wire frames, at most [k] segments
    each.  One frame costs one syscall and one {!seg_header_bytes} header
    (+{!coal_entry_bytes} per extra segment) instead of [k] of each.
    Retransmissions replay the window in coalesced frames too.  With the
    default [coalesce = 1] a send transmits synchronously, byte-for-byte
    the uncoalesced behaviour.

    {b Accounting.}  The wrapper's [stats] report {e protocol-level}
    numbers: [sent]/[delivered] and control/payload bytes count first
    transmissions and first in-order deliveries only, exactly what the
    paper's efficiency experiments compare — coalescing and ack policy
    change neither.  Everything the reliability layer adds — frame
    headers, retransmitted copies, standalone acks — is summed apart in
    [overhead_bytes] (with [retransmits], [acks_sent], [acks_piggybacked],
    [frames_sent] and [dups_suppressed] counters), so the
    control-information gap of Theorem 2 stays visible under loss, and the
    syscall/byte savings of coalescing are measurable without touching
    protocol parity.

    {b Recovery.}  With [stable_acks] on, acks advance only to the
    receiver's last checkpointed position ({!control.mark_stable}); senders
    therefore keep (and keep retransmitting) anything a crash could roll
    back, which is what makes checkpoint-restart recovery lossless. *)

type config = {
  retransmit_after : int;  (** Initial retransmission timeout, ticks/ms. *)
  backoff_max : int;  (** Cap for the exponential backoff. *)
  jitter : int;  (** Max additive jitter per re-arm, from a seeded stream. *)
  seed : int;
  stable_acks : bool;
      (** Ack the checkpoint floor instead of the live cursor; enable only
          when something calls {!control.mark_stable}, else windows never
          drain. *)
  ack_delay : int;
      (** Idle ticks before an owed ack goes out standalone; until then it
          waits to piggyback on reverse-direction data.  Must stay below
          [retransmit_after] or clean links would retransmit spuriously;
          [0] acks at once (one per frame, still piggybacking first). *)
  coalesce : int;
      (** Max segments packed into one wire frame; [1] disables the flush
          budget entirely (synchronous transmission). *)
}

val default : config
(** 40-tick initial timeout, 320 cap, jitter 10, [stable_acks = false],
    [ack_delay = 20], [coalesce = 1]. *)

type 'msg wrapped =
  | Segs of { ack : int; segs : (int * int * int * 'msg) array }
      (** A data frame: consecutive segments [(seq, control, payload,
          msg)], plus a piggybacked cumulative ack ([-1] when none is
          owed).  Uncoalesced traffic is the singleton case. *)
  | Ack of { next : int }
(** The wire type the inner backend carries.  Exposed for tests. *)

val wrapped_codec : 'msg Codec.t -> 'msg wrapped Codec.t
(** Lift a protocol message codec to the session's wire type; [wrap]
    applies this to any codec the protocol passed down, so session frames
    ride the live backend's zero-copy path too.  Exposed for tests. *)

val seg_header_bytes : int
(** Per-frame header cost: base sequence number + cumulative-ack slot
    (piggybacked acks are therefore free). *)

val ack_bytes : int
(** Standalone ack frame cost. *)

val coal_entry_bytes : int
(** Extra cost per segment packed beyond a frame's first. *)

type stats = {
  segs_sent : int;  (** Segment transmissions, including retransmits. *)
  retransmits : int;
  acks_sent : int;  (** Standalone ack frames only. *)
  acks_piggybacked : int;  (** Acks that rode a data frame for free. *)
  frames_sent : int;  (** Wire frames: data frames + standalone acks. *)
  dups_suppressed : int;
  overhead_bytes : int;
}

type control = {
  stats : unit -> stats;
  mark_stable : unit -> unit;
      (** Declare everything received so far as checkpointed: acks may now
          cover it.  Call right after persisting a checkpoint. *)
  snapshot : unit -> string;
      (** Marshalled session state (windows, cursors, counters). *)
  restore : string -> unit;
      (** Inverse of [snapshot]; re-arms retransmission timers for links
          with unacked segments.  Call before any traffic. *)
  delivered : unit -> int;
      (** In-order first deliveries so far.  After [restore] this resumes
          from the snapshotted value and advances as peers retransmit, so a
          recovering node can wait until redeliveries reach the delivery
          watermark its WAL recorded (the replay-to-live barrier). *)
}

val wrap : ?config:config -> Transport.factory -> Transport.factory * control
(** [wrap inner] layers the session protocol over [inner].  The [control]
    handle becomes usable once the factory has been used (it raises
    [Invalid_argument] before that). *)

val stack :
  ?plan:Repro_msgpass.Fault.Plan.t ->
  seed:int ->
  Transport.factory ->
  Transport.factory
(** [stack ?plan ~seed backend] is the backend → chaos → session stack of
    a single-process run: [backend], then {!Chaos.wrap} [~plan] (skipped
    when [plan] is absent or {!Repro_msgpass.Fault.Plan.is_none}), then
    {!wrap} with {!default} and jitter seed [seed + 1].  The same plan and
    seed reproduce the same run. *)
