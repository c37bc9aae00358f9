(* Spans the benchmark records around its own calls into each layer.

   Every timed call adds to its layer's running totals (calls, ns); the
   spans themselves are kept only for a seeded sample of ops, so memory
   stays bounded however long the run.  Self time is a span's duration
   minus the union of its children's intervals, clipped to the span. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  op : int;  (** op (or instance) id the span belongs to *)
  layer : string;
  start : int;  (** ns, monotonic clock *)
  stop : int;
}

type total = { mutable calls : int; mutable ns : int }

type t = {
  on : bool;
  sample_mask : int;
  salt : int;
  mutable next_id : int;
  mutable spans : span list;  (** newest first *)
  totals : (string, total) Hashtbl.t;
}

(* [sample_every] must be a power of two: an op is sampled when its salted
   hash lands in the bottom bucket, so the sample is a pure function of
   (seed, op) and never of timing. *)
let create ~on ~seed ~sample_every =
  if sample_every < 1 || sample_every land (sample_every - 1) <> 0 then
    invalid_arg "Trace.create: sample_every must be a power of two";
  {
    on;
    sample_mask = sample_every - 1;
    salt = seed;
    next_id = 0;
    spans = [];
    totals = Hashtbl.create 16;
  }

let off = create ~on:false ~seed:0 ~sample_every:1

let sampled t op = t.on && Hashtbl.hash (t.salt, op) land t.sample_mask = 0

let total t layer =
  match Hashtbl.find_opt t.totals layer with
  | Some tot -> tot
  | None ->
      let tot = { calls = 0; ns = 0 } in
      Hashtbl.replace t.totals layer tot;
      tot

let add (tot : total) ns =
  tot.calls <- tot.calls + 1;
  tot.ns <- tot.ns + ns

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Keep one span.  [id] lets a caller reserve a parent's id before its
   children are recorded (a root closes last). *)
let keep t ?id ~parent ~op ~layer ~start ~stop () =
  let id = match id with Some id -> id | None -> fresh_id t in
  t.spans <- { id; parent; op; layer; start; stop } :: t.spans;
  id

let spans t = List.rev t.spans

(* --- self time ----------------------------------------------------------- *)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun c ->
               let a = max c.start s.start and b = min c.stop s.stop in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      (* union of the clipped child intervals, swept left to right *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, s.start) kids
      in
      (s, s.stop - s.start - covered))
    spans

type layer_row = { layer : string; nspans : int; self_ns : int; ops : int }

(* Per-layer table over the kept spans: span count, summed self time and
   the number of distinct ops the layer's spans belong to. *)
let layer_table spans =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun ((s : span), self) ->
      let n, ns, ops =
        match Hashtbl.find_opt rows s.layer with
        | Some r -> r
        | None -> (0, 0, Hashtbl.create 64)
      in
      Hashtbl.replace ops s.op ();
      Hashtbl.replace rows s.layer (n + 1, ns + self, ops))
    (self_times spans);
  Hashtbl.fold
    (fun layer (nspans, self_ns, ops) acc ->
      { layer; nspans; self_ns; ops = Hashtbl.length ops } :: acc)
    rows []
  |> List.sort (fun a b -> compare a.layer b.layer)

let write_files t ~dir ~stem =
  let spans = spans t in
  let path_spans = Filename.concat dir (stem ^ ".spans.tsv") in
  let oc = open_out path_spans in
  output_string oc "id\tparent\top\tlayer\tstart_ns\tstop_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.id s.parent s.op s.layer
        s.start s.stop)
    spans;
  close_out oc;
  let rows = layer_table spans in
  let path_layers = Filename.concat dir (stem ^ ".layers.tsv") in
  let oc = open_out path_layers in
  output_string oc
    "layer\tspans\tsampled_ops\tself_ns\tself_ns_per_sampled_op\tall_calls\tall_ns_per_call\n";
  List.iter
    (fun r ->
      let tot = total t r.layer in
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%.1f\t%d\t%.1f\n" r.layer r.nspans r.ops
        r.self_ns
        (float_of_int r.self_ns /. float_of_int (max 1 r.ops))
        tot.calls
        (float_of_int tot.ns /. float_of_int (max 1 tot.calls)))
    rows;
  close_out oc;
  (path_spans, path_layers, rows)
