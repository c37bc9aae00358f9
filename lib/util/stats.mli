(** Streaming and batch statistics for experiment reporting. *)

type t
(** A mutable accumulator of float observations (Welford's algorithm for
    mean/variance, exact min/max, plus either a retained sample or a
    bounded log-bucketed sketch for percentiles). *)

val create : unit -> t
(** Exact mode: every observation is retained, percentiles are exact
    order statistics.  Memory grows linearly with [count]. *)

val create_sketch : ?gamma:float -> unit -> t
(** Bounded-memory mode for million-observation runs: observations land
    in log-spaced buckets ([gamma^i, gamma^(i+1))), reported at the
    geometric bucket midpoint, so every percentile is within a relative
    error of [sqrt gamma - 1] of the true order statistic — under 1% for
    the default [gamma = 1.02] — while memory stays
    O(log(max/min)/log gamma) buckets (≈930 for values spanning 1..1e8),
    independent of [count].  Count, sum, mean, variance, min and max stay
    exact.  @raise Invalid_argument when [gamma <= 1]. *)

val is_sketch : t -> bool

val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 when fewer than two observations. *)

val stddev : t -> float

val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], linear interpolation between
    order statistics (exact, or bucket representatives within the sketch
    error bound, clamped to the exact [\[min, max\]]).
    @raise Invalid_argument when empty or [p] is out of range. *)

val merge : t -> t -> t
(** Combine two accumulators (observations of both).  The result is a
    sketch iff either side is one (an exact result cannot recover a
    sketch's discarded samples); sketch-sketch merging is bounded-memory —
    moments combine algebraically, bucket counts add. *)
