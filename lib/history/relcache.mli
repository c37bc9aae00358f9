(** Shared per-history relation cache.

    Checking all eight criteria against one history (the A2 sweep) used to
    recompute [read_from], program order and every closure once per
    criterion — and [ops_by_var] once per criterion unit list.  A [Relcache.t]
    wraps one history and memoizes each derived relation on first use, so a
    multi-criteria sweep pays for each closure exactly once.

    All accessors are lazy: creating a cache costs nothing beyond the
    read-from inference, and a criterion only forces the relations it
    needs. *)

type t

val create : History.t -> t

val history : t -> History.t

val index : t -> Unit_view.index
(** The history's writer index ({!Unit_view.index} over one shared copy of
    {!History.ops}), built once and shared by every unit of every
    criterion.  Force it before handing units to other domains: a lazy
    value is not domain-safe. *)

val read_from : t -> (int option array, History.rf_error) result
(** Memoized {!History.read_from}. *)

val rf_exn : t -> int option array
(** @raise Invalid_argument when the history's read-from is undetermined;
    callers are expected to have inspected {!read_from} first. *)

(** {2 Relations} — each memoized on first access.  All functions taking the
    read-from map raise like {!rf_exn} when it is undetermined. *)

val program_order : t -> Orders.relation
val read_from_relation : t -> Orders.relation
val causal : t -> Orders.relation
val semi_causal : t -> Orders.relation
val lazy_causal : t -> Orders.relation
val lazy_semi_causal : t -> Orders.relation
val pram : t -> Orders.relation

val slow : t -> Orders.relation
(** Program order ∪ read-from: the per-variable relation of slow memory. *)

(** {2 Operation indexes} *)

val all_ids : t -> int list
(** [0 .. n_ops-1]. *)

val proc_ids : t -> int -> int list
(** Global ids of [sub_history h p] (process [p]'s operations plus all
    writes), ascending. *)

val var_ids : t -> int -> int list
(** Global ids of the operations on a variable, ascending; memoized for the
    whole history on first access. *)

val proc_var_ids : t -> int -> int -> int list
(** Global ids of writes on the variable plus process [p]'s operations on
    it — the slow-memory unit subset — ascending. *)
