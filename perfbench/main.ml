(* The repository benchmark: serve-read, serve-write and sim-check.

     dune exec --root . ./perfbench/main.exe -- --workload NAME --seed N
       --seconds S --trace 0|1 [--out DIR]

   NAME is serve-read, serve-write, sim-check or all.  Prints a table per
   workload, then one JSON line per workload (the last line of stdout is
   the last workload's).  --trace 0 reports the end-to-end metrics;
   --trace 1 reports the per-layer metrics and writes span and layer
   tables under DIR (default perfbench/out).  Exit status: 0 when every
   correctness gate held, 1 when one failed, 2 on a usage error. *)

open Perfbench

let default_seed = 1

(* Input digests of the default seed, pinned: an edit to the schedule
   generator, the mixes, the placement or the workload scripts changes the
   load every later comparison rests on, so it fails every run until the
   digest is re-pinned on purpose. *)
let pinned =
  [
    ("serve-read", "860d1144a2c2db923d22a7fcab7a53f6");
    ("serve-write", "ad75e7356a5610c0b49274960eeaba01");
    ("sim-check", "4fe1aa9cce3d980535328a24c2ed7a03");
  ]

let workloads = List.map fst pinned

type opts = {
  names : string list;
  seed : int;
  seconds : int;
  trace : bool;
  out : string;
}

let usage =
  "usage: main.exe --workload serve-read|serve-write|sim-check|all --seed N \
   --seconds S --trace 0|1 [--out DIR]"

let parse args =
  let rec go o = function
    | [] -> Ok o
    | "--workload" :: w :: rest ->
        if w = "all" then go { o with names = workloads } rest
        else if List.mem w workloads then go { o with names = [ w ] } rest
        else Error (Printf.sprintf "unknown workload %S" w)
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some s when s >= 0 -> go { o with seed = s } rest
        | _ -> Error (Printf.sprintf "bad --seed %S" s))
    | "--seconds" :: s :: rest -> (
        match int_of_string_opt s with
        | Some s when s >= 1 && s <= 600 -> go { o with seconds = s } rest
        | _ -> Error (Printf.sprintf "bad --seconds %S (1..600)" s))
    | "--trace" :: t :: rest -> (
        match t with
        | "0" -> go { o with trace = false } rest
        | "1" -> go { o with trace = true } rest
        | _ -> Error (Printf.sprintf "bad --trace %S (0 or 1)" t))
    | "--out" :: d :: rest -> go { o with out = d } rest
    | flag :: _ -> Error (Printf.sprintf "unknown or incomplete flag %S" flag)
  in
  match
    go
      { names = []; seed = default_seed; seconds = 20; trace = false;
        out = Filename.concat "perfbench" "out" }
      args
  with
  | Ok { names = []; _ } -> Error "--workload is required"
  | r -> r

(* Fail before any workload runs when traces could not be written. *)
let check_out_dir dir =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  match
    mkdir_p dir;
    let probe = Filename.concat dir ".writable" in
    let oc = open_out probe in
    close_out oc;
    Sys.remove probe
  with
  | () -> Ok ()
  | exception Sys_error e -> Error (Printf.sprintf "output path unwritable: %s" e)

let run_one o name =
  let trace =
    Trace.create ~on:o.trace ~seed:o.seed
      ~sample_every:(if name = "sim-check" then 4 else 1024)
  in
  let pinned_digest = List.assoc name pinned in
  let r =
    match name with
    | "sim-check" ->
        Simcheck.run ~seed:o.seed ~seconds:o.seconds ~trace ~pinned_digest
          ~default_seed
    | _ ->
        let mix =
          if name = "serve-read" then Repro_loadgen.Mix.read_heavy
          else Repro_loadgen.Mix.write_heavy
        in
        Serve.run ~exe:Sys.executable_name ~name ~mix ~seed:o.seed
          ~seconds:o.seconds ~trace ~pinned_digest ~default_seed
  in
  let r =
    if not o.trace then r
    else begin
      let stem = Printf.sprintf "%s-seed%d" name o.seed in
      let spans, layers, rows = Trace.write_files trace ~dir:o.out ~stem in
      Printf.printf "  per-layer self time over %d sampled spans (%s, %s):\n"
        (List.length (Trace.spans trace)) spans layers;
      List.iter
        (fun (row : Trace.layer_row) ->
          Printf.printf "    %-24s spans %7d  self %12.0f ns per sampled op\n"
            row.Trace.layer row.Trace.nspans
            (float_of_int row.Trace.self_ns /. float_of_int (max 1 row.Trace.ops)))
        rows;
      r
    end
  in
  Report.print_table stdout r;
  r

let () =
  match Array.to_list Sys.argv with
  | _ :: "--node-child" :: self :: seed :: timeout :: [] ->
      Serve.node_child ~self:(int_of_string self) ~seed:(int_of_string seed)
        ~run_timeout_ms:(int_of_string timeout)
  | _ :: args -> (
      match
        Result.bind (parse args) (fun o ->
            Result.map (fun () -> o) (check_out_dir o.out))
      with
      | Error e ->
          prerr_endline ("perfbench: " ^ e);
          prerr_endline usage;
          exit 2
      | Ok o ->
          (* interrupted: exit through [at_exit], which reaps the nodes *)
          List.iter
            (fun signal ->
              Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
            [ Sys.sigint; Sys.sigterm ];
          let results = List.map (run_one o) o.names in
          List.iter
            (fun r ->
              let metrics =
                if o.trace then r.Report.per_layer else r.Report.end_to_end
              in
              print_endline (Report.json_line ~metrics r))
            results;
          exit (if List.for_all Report.correct results then 0 else 1))
  | [] -> exit 2
