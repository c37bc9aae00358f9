(** Monomorphic int-keyed binary min-heap.

    The scheduler's far-event queue ({!Eventq}): an event scheduled past
    the time ring's 64 ticks waits here under one immediate int key (the
    queue packs [(time, seq)] into one word).  Pushes and pops run without
    allocating and compare keys with unboxed [<] instead of a closure.
    The heap keeps no popped or cleared value reachable, except the first
    value ever pushed, which fills every vacated slot.
    The generic {!Pqueue} remains for composite or polymorphic keys. *)

type 'a t
(** Mutable min-heap of ['a] values keyed by ints (smallest key first).
    Equal keys come out in unspecified order — callers needing a total
    order must make keys distinct (the simulator folds a sequence number
    into the key). *)

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** O(log n), allocation-free (amortized: the backing arrays double). *)

val min_key : 'a t -> int
(** Smallest key, without removing it.  O(1), allocation-free.
    @raise Invalid_argument on an empty heap. *)

val pop_min : 'a t -> 'a
(** Remove the smallest binding and return its value.  O(log n),
    allocation-free; read {!min_key} first when the key is needed.
    @raise Invalid_argument on an empty heap. *)

val peek : 'a t -> (int * 'a) option

val pop : 'a t -> (int * 'a) option
(** Allocating convenience wrapper over {!min_key} + {!pop_min}. *)

val clear : 'a t -> unit

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Heap order, not sorted order. *)

val to_sorted_list : 'a t -> (int * 'a) list
(** Drain a copy in key order; the heap is unchanged.  O(n log n);
    intended for tests and debugging. *)
