(** The discrete-event scheduler's queue: events come out by time, and
    events of one time in the order they were pushed.

    A simulated message is scheduled a few ticks past the clock, so the
    queue keeps one FIFO slot per tick for the 64 ticks from {!time} on,
    as a calendar queue does (R. Brown, CACM 31(10), 1988): a push there
    appends to its tick's slot and a pop takes the head of the first
    nonempty slot, both O(1) and allocation-free (amortized: the entry
    pool doubles).  A later event goes to an {!Intheap} keyed by its time
    and push order, and a pop takes the earlier of the two heads, the
    heap's on a tie: the heap got every push at a tick before the tick
    came within 64 of {!time}, so before any push to its slot.  A far
    time or push count that reaches 2{^31} moves the heap's events onto a
    tuple-keyed {!Pqueue} in the same order.

    {!time} only moves in {!pop}, to the popped event's time, and never
    goes back.  A caller that keeps a clock at or past the last popped
    time, and pushes nothing before that clock, therefore never pushes
    before {!time}.  The ring keeps no popped value, only the first
    value pushed. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push t time v] schedules [v] at [time], after every event already
    pushed at [time].
    @raise Invalid_argument if [time < time t]. *)

val min_time : 'a t -> int
(** Time of the earliest event, without removing it or moving {!time}.
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return it; {!time} is then its time.
    @raise Invalid_argument on an empty queue. *)

val time : 'a t -> int
(** The window's base: the time of the event the last {!pop} returned,
    0 before the first. *)
