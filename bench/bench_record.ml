(* One record for every bench tier.  A tier is a set of tables plus named
   gates: a table is a title and rows, a row is a case name and metrics, a
   metric is a name, a unit and one value per rep.  This module owns the
   one table printer, the one JSON writer (schema repro-bench/2), the
   --json FILE|DIR resolution and the exit rule: 2 when any gate failed. *)

module Jsonout = Repro_util.Jsonout
module Table = Repro_util.Table

let schema = "repro-bench/2"

(* [Num nan] is a missing measurement: "n/a" in the table, null in JSON *)
type value = Num of float | Text of string

type metric = { name : string; unit : string; values : value list }

type row = { case : string; metrics : metric list }

type table = { title : string; rows : row list }

type gate = { gate : string; ok : bool }

type t = {
  tier : string;
  params : (string * int) list;
  tables : table list;
  gates : gate list;
  notes : string list;
}

let nums name unit xs = { name; unit; values = List.map (fun x -> Num x) xs }

let ints name unit xs = nums name unit (List.map float_of_int xs)

let text name s = { name; unit = ""; values = [ Text s ] }

let gate gate ok = { gate; ok }

let one_row title case metrics = { title; rows = [ { case; metrics } ] }

(* upper median, so an even count still reports a measured value *)
let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let numeric values =
  List.filter_map
    (function Num x when not (Float.is_nan x) -> Some x | _ -> None)
    values

(* --- the table printer ---------------------------------------------------------- *)

let fmt_ns ns =
  if ns > 1_000_000.0 then Printf.sprintf "%.2f ms" (ns /. 1_000_000.0)
  else if ns > 1_000.0 then Printf.sprintf "%.2f us" (ns /. 1_000.0)
  else Printf.sprintf "%.0f ns" ns

let cell unit = function
  | Text s -> s
  | Num x when Float.is_nan x -> "n/a"
  | Num x when unit = "ns" -> fmt_ns x
  | Num x when Float.is_integer x || Float.abs x >= 100.0 ->
      Printf.sprintf "%.0f" x
  | Num x -> Printf.sprintf "%.2f" x

let print_table { title; rows } =
  (* one column per metric name, in order of first appearance; a row
     without that metric leaves its cell empty *)
  let columns =
    List.fold_left
      (fun cols r ->
        List.fold_left
          (fun cols m ->
            if List.mem_assoc m.name cols then cols else cols @ [ (m.name, m.unit) ])
          cols r.metrics)
      [] rows
  in
  Printf.printf "== %s ==\n" title;
  Table.print
    ~header:
      ("case"
      :: List.map
           (fun (name, unit) ->
             (* counts need no unit; fmt_ns carries its own *)
             if List.mem unit [ ""; "count"; "ns" ] then name else name ^ " " ^ unit)
           columns)
    ~rows:
      (List.map
         (fun r ->
           r.case
           :: List.map
                (fun (name, unit) ->
                  match List.find_opt (fun m -> m.name = name) r.metrics with
                  | Some m -> String.concat "/" (List.map (cell unit) m.values)
                  | None -> "")
                columns)
         rows)
    ()

(* --- the JSON writer ------------------------------------------------------------ *)

let json_of_metric m =
  let value = function Num x -> Jsonout.Float x | Text s -> Jsonout.String s in
  Jsonout.Obj
    ([
       ("name", Jsonout.String m.name);
       ("unit", Jsonout.String m.unit);
       ("values", Jsonout.List (List.map value m.values));
     ]
    @
    match numeric m.values with
    | _ :: _ :: _ as xs -> [ ("median", Jsonout.Float (median xs)) ]
    | _ -> [])

let json t =
  Jsonout.Obj
    [
      ("schema", Jsonout.String schema);
      ("tier", Jsonout.String t.tier);
      ("params", Jsonout.Obj (List.map (fun (k, v) -> (k, Jsonout.Int v)) t.params));
      ( "gates",
        Jsonout.List
          (List.map
             (fun g ->
               Jsonout.Obj
                 [ ("name", Jsonout.String g.gate); ("ok", Jsonout.Bool g.ok) ])
             t.gates) );
      ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) t.notes));
      ( "tables",
        Jsonout.List
          (List.map
             (fun tbl ->
               Jsonout.Obj
                 [
                   ("title", Jsonout.String tbl.title);
                   ( "rows",
                     Jsonout.List
                       (List.map
                          (fun r ->
                            Jsonout.Obj
                              [
                                ("case", Jsonout.String r.case);
                                ( "metrics",
                                  Jsonout.List (List.map json_of_metric r.metrics) );
                              ])
                          tbl.rows) );
                 ])
             t.tables) );
    ]

(* --- where the record goes ------------------------------------------------------ *)

type target = { path : string; gap_notes : string list }

(* When --json names a directory, the record auto-numbers itself into the
   trajectory (bench/records/BENCH_NNNN.json): next free slot after the
   highest existing record, with a note listing any gaps below it so the
   history stays honest (BENCH_0001 was never recorded). *)
let resolve path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let recorded =
      Sys.readdir path |> Array.to_list
      |> List.filter_map (fun f ->
             if
               String.length f = 15
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json"
             then int_of_string_opt (String.sub f 6 4)
             else None)
      |> List.sort_uniq compare
    in
    let next = 1 + List.fold_left Stdlib.max (-1) recorded in
    (* flag only holes inside the recorded range: a trajectory that simply
       starts later than BENCH_0001 (records pruned, or numbering began
       mid-series) is not a gap worth a note on every subsequent record *)
    let first = List.fold_left Stdlib.min next recorded in
    let gaps =
      List.filter
        (fun i -> i > first && not (List.mem i recorded))
        (List.init next Fun.id)
    in
    let gap_notes =
      match gaps with
      | [] -> []
      | gaps ->
          [
            Printf.sprintf
              "trajectory gap: %s never recorded; numbering continues at the \
               next free slot"
              (String.concat ", "
                 (List.map (Printf.sprintf "BENCH_%04d") gaps));
          ]
    in
    { path = Filename.concat path (Printf.sprintf "BENCH_%04d.json" next); gap_notes }
  end
  else { path; gap_notes = [] }

(* Resolve [path] and prove it can be created before any tier runs, so a
   bad --json is a usage error (exit 1), not a lost record after the run.
   The probe removes a file it created: a tier that later fails leaves no
   empty record behind. *)
let target path =
  let t = resolve path in
  let existed = Sys.file_exists t.path in
  match Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
  | fd ->
      Unix.close fd;
      if not existed then Sys.remove t.path;
      t
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "bench: cannot write %s: %s\n" t.path (Unix.error_message err);
      exit 1

(* Print every table, every gate with its status and the notes; write the
   JSON record when a target was given; exit 2 when any gate failed. *)
let report ?target t =
  List.iter print_table t.tables;
  List.iter
    (fun g -> Printf.printf "gate %-6s %s\n" (if g.ok then "ok" else "FAILED") g.gate)
    t.gates;
  let t =
    match target with
    | Some { gap_notes; _ } -> { t with notes = gap_notes @ t.notes }
    | None -> t
  in
  List.iter (Printf.printf "note: %s\n") t.notes;
  Option.iter
    (fun { path; _ } ->
      Out_channel.with_open_text path (fun oc -> Jsonout.to_channel oc (json t));
      Printf.printf "wrote %s\n" path)
    target;
  let failed = List.filter (fun g -> not g.ok) t.gates in
  List.iter (fun g -> Printf.eprintf "%s tier FAILED: %s\n" t.tier g.gate) failed;
  if failed <> [] then exit 2
