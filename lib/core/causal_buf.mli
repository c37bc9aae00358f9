(** Per-process delivery buffer for vector-clock-stamped updates.

    Replaces the pending-list-plus-partition drain the causal protocols
    shared, preserving its apply order exactly (the drain's pass structure
    is emulated, see the implementation notes) while making each applied
    update amortized O(1): per-writer ring windows hold blocked updates and
    each blocked update is re-examined only when the vector-clock entry it
    parked on advances. *)

type 'a t

val create : n:int -> apply:('a -> unit) -> unit -> 'a t
(** [create ~n ~apply ()] builds the buffer for one process in an [n]-writer
    system.  [apply] receives each payload at the moment the historical
    drain would have applied it; the buffer increments its own vector clock
    entry for the update's writer immediately afterwards. *)

val vc : 'a t -> int array
(** The live vector clock: [vc.(k)] counts writer [k]'s updates processed
    at this process.  Callers may read it (e.g. to stamp outgoing writes)
    but must mutate it only through {!tick}. *)

val tick : 'a t -> int -> unit
(** [tick t k] records a local write by [k] (the owning process), advancing
    [vc.(k)] without draining — local writes can never unblock a buffered
    remote update, because no update may depend on more local writes than
    the local process has issued. *)

val add : 'a t -> writer:int -> ts:int array -> 'a -> unit
(** File an update and apply every buffered update this makes deliverable,
    in the historical drain order.  Updates whose [ts.(writer)] slot was
    already applied or is already occupied are ignored (late or queued
    duplicates, inert in the historical pending list too).  The buffer only
    reads [ts], and may keep it until the update is applied: the caller
    must not mutate it afterwards, but may share one stamp among many
    buffers.
    @raise Invalid_argument when [ts] is not [n] entries wide or [writer]
    is not a process, before the buffer changes. *)
