(** Deterministic pseudo-random number generation.

    Every experiment in this repository is seeded: the same seed must produce
    byte-identical traces across runs.  The generator is SplitMix64
    (Steele–Lea–Flood), chosen for its tiny state, good statistical quality
    and trivially reproducible splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Two generators
    built from equal seeds produce identical streams. *)

val copy : t -> t
(** [copy g] is an independent generator that continues the exact stream of
    [g] without affecting it. *)

val split : t -> t
(** [split g] derives a statistically independent child generator and
    advances [g].  Used to give each simulated component its own stream so
    that adding draws in one component does not perturb another. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val skip : t -> int -> unit
(** [skip g k] advances [g] past [k] draws of {!next_int64}, leaving it
    exactly where [k] discarded draws would, in O(1) and without mixing.
    @raise Invalid_argument if [k < 0]. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val coin : t -> float -> bool
(** [coin g p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential g mean] draws from an exponential distribution; used by
    latency models. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on [||]. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. @raise Invalid_argument on []. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement g k n] draws [k] distinct integers from
    [\[0, n)], in increasing order.  @raise Invalid_argument if [k > n] or
    [k < 0]. *)
