(* The one run record: the table printer, the repro-bench/2 JSON writer
   and the --json FILE|DIR resolution, shared by every bench tier and the
   CLI's run commands. *)

let schema = "repro-bench/2"

(* [Num nan] is a missing measurement: "n/a" in the table, null in JSON *)
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

let nums name unit xs = { name; unit; values = List.map (fun x -> Num x) xs }

let ints name unit xs = nums name unit (List.map float_of_int xs)

let text name s = { name; unit = ""; values = [ Text s ] }

let gate gate ok = { gate; ok }

let int_param name v = (name, Num (float_of_int v))

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

(* metric names and units in order of first appearance *)
let columns metric_lists =
  List.fold_left
    (List.fold_left (fun cols m ->
         if List.mem_assoc m.name cols then cols else cols @ [ (m.name, m.unit) ]))
    [] metric_lists

let find name ms = List.find_opt (fun m -> m.name = name) ms

let merge case reps =
  let values name =
    List.concat_map
      (fun ms -> match find name ms with Some m -> m.values | None -> [])
      reps
  in
  {
    case;
    metrics =
      List.map (fun (name, unit) -> { name; unit; values = values name }) (columns reps);
  }

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

(* counts need no unit; fmt_ns carries its own *)
let label (name, unit) =
  if List.mem unit [ ""; "count"; "ns" ] then name else name ^ " " ^ unit

(* per-rep values joined by "/"; reps that all agree print once *)
let cells unit values =
  match List.sort_uniq compare values with
  | [ v ] -> cell unit v
  | _ -> String.concat "/" (List.map (cell unit) values)

(* A table of several rows renders one column per metric name, in order of
   first appearance; a row without that metric leaves its cell empty.  A
   one-row table renders one metric per line, so a run summary never
   becomes a table dozens of columns wide.  A table without rows renders
   as nothing. *)
let render_table { title; rows } =
  let body =
    match rows with
    | [] -> ""
    | [ { case; metrics } ] ->
        Table.render ~header:[ "metric"; case ]
          ~rows:
            (List.map
               (fun m -> [ label (m.name, m.unit); cells m.unit m.values ])
               metrics)
          ()
    | rows ->
        let columns = columns (List.map (fun r -> r.metrics) rows) in
        Table.render
          ~header:("case" :: List.map label columns)
          ~rows:
            (List.map
               (fun r ->
                 r.case
                 :: List.map
                      (fun (name, unit) ->
                        match find name r.metrics with
                        | Some m -> cells unit m.values
                        | None -> "")
                      columns)
               rows)
          ()
  in
  if rows = [] then "" else Printf.sprintf "== %s ==\n%s" title body

(* --- the JSON writer ------------------------------------------------------------ *)

let json t =
  let open Jsonout in
  let value = function Num x -> Float x | Text s -> String s in
  let metric m =
    Obj
      ([
         ("name", String m.name);
         ("unit", String m.unit);
         ("values", List (List.map value m.values));
       ]
      @
      match numeric m.values with
      | _ :: _ :: _ as xs -> [ ("median", Float (median xs)) ]
      | _ -> [])
  in
  let row r = Obj [ ("case", String r.case); ("metrics", List (List.map metric r.metrics)) ] in
  let table tbl = Obj [ ("title", String tbl.title); ("rows", List (List.map row tbl.rows)) ] in
  Obj
    [
      ("schema", String schema);
      ("tier", String t.tier);
      ("params", Obj (List.map (fun (k, v) -> (k, value v)) t.params));
      ( "gates",
        List
          (List.map (fun g -> Obj [ ("name", String g.gate); ("ok", Bool g.ok) ]) t.gates)
      );
      ("notes", List (List.map (fun n -> String n) t.notes));
      ("tables", List (List.map table t.tables));
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

(* Resolve [path] and prove it can be created before any run starts, so a
   bad --json is a usage error, not a lost record after the run.  The
   probe removes a file it created: a run that later fails leaves no empty
   record behind. *)
let target path =
  let t = resolve path in
  let existed = Sys.file_exists t.path in
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 t.path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove t.path;
      Ok t
  (* Sys_error reads "<path>: <reason>" *)
  | exception Sys_error msg -> Error ("cannot write " ^ msg)

let with_gap_notes target t =
  match target with
  | Some { gap_notes; _ } -> { t with notes = gap_notes @ t.notes }
  | None -> t

let render ?target t =
  let t = with_gap_notes target t in
  String.concat ""
    (List.map render_table t.tables
    @ List.map
        (fun g ->
          Printf.sprintf "gate %-6s %s\n" (if g.ok then "ok" else "FAILED") g.gate)
        t.gates
    @ List.map (Printf.sprintf "note: %s\n") t.notes)

let print ?target t = print_string (render ?target t)

let write target t =
  let t = with_gap_notes (Some target) t in
  Out_channel.with_open_text target.path (fun oc -> Jsonout.to_channel oc (json t));
  Printf.printf "wrote %s\n" target.path

let failed t = List.filter (fun g -> not g.ok) t.gates
