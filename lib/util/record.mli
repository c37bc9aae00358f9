(** One record for every measured run: each bench tier and the CLI's
    [cluster], [reconfig], [load] and [experiment] outputs.  A record is
    tables plus named gates; a table is a title and rows, a row is a case
    and metrics, a metric is a name, a unit and one value per rep.  Each
    caller keeps its own exit rule over {!failed}. *)

val schema : string
(** ["repro-bench/2"]. *)

(** [Num nan] is a missing measurement: ["n/a"] printed, [null] in JSON. *)
type value = Num of float | Text of string

type metric = { name : string; unit : string; values : value list }
type row = { case : string; metrics : metric list }
type table = { title : string; rows : row list }
type gate = { gate : string; ok : bool }

type t = {
  tier : string;
  params : (string * value) list;
  tables : table list;
  gates : gate list;
  notes : string list;
}

val nums : string -> string -> float list -> metric
(** [nums name unit values]; {!ints} and {!text} (one value, no unit)
    likewise. *)

val ints : string -> string -> int list -> metric
val text : string -> string -> metric
val gate : string -> bool -> gate
val int_param : string -> int -> string * value

val one_row : string -> string -> metric list -> table
(** [one_row title case metrics]. *)

val median : float list -> float
(** Upper median, so an even count still reports a measured value. *)

val merge : string -> metric list list -> row
(** [merge case reps]: one row whose metrics carry every rep's values in
    rep order, metrics in order of first appearance. *)

val json : t -> Jsonout.t
(** The record under {!schema}; a metric with two or more numeric values
    also carries their median. *)

type target = { path : string; gap_notes : string list }

val target : string -> (target, string) result
(** Resolve a [--json] argument and prove the file can be created, before
    anything runs; the probe leaves no file behind.  A directory numbers
    the record [BENCH_NNNN.json] after the highest one there, with
    [gap_notes] naming the missing slots below it.  [Error] reads
    ["cannot write <path>: <reason>"]. *)

val render : ?target:target -> t -> string
(** Every table, then every gate as a [gate ok|FAILED] line, then the
    notes (the target's gap notes first).  A one-row table renders one
    metric per line, a table without rows as nothing, and a metric whose
    reps all agree as one value. *)

val print : ?target:target -> t -> unit

val write : target -> t -> unit
(** The JSON record, with the target's gap notes; prints [wrote <path>]. *)

val failed : t -> gate list
