(* Metric records, percentiles and the one-line JSON result. *)

type metric = { name : string; unit_ : string; value : float }

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let m name unit_ value =
  if not (valid_name name) then invalid_arg ("Report.m: bad metric name " ^ name);
  { name; unit_; value }

type result = {
  workload : string;
  attempted : int;
  failed : int;
  gates : (string * bool) list;  (** every correctness gate, by name *)
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
  notes : (string * string) list;  (** extra human-readable lines *)
}

let correct r = List.for_all snd r.gates

let failed_share r =
  if r.attempted <= 0 then 1.0
  else float_of_int r.failed /. float_of_int r.attempted

(* Percentile by linear interpolation over a sorted array; +inf entries
   (unanswered ops) sort last and propagate. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    if frac = 0. || sorted.(lo) = sorted.(hi) then sorted.(lo)
    else sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_of (a : float array) =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median l = percentile (sorted_of (Array.of_list l)) 50.

(* --- JSON ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* all digits as measured: %.17g round-trips.  JSON has no infinity, so a
   non-finite value (a percentile reaching an unanswered op) becomes null;
   such a run has already failed its gates. *)
let json_float f =
  if Float.is_finite f then
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "null"

let json_line ~metrics r =
  let ms =
    List.map
      (fun mt ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string mt.name)
          (json_float mt.value) (json_string mt.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed (String.concat ", " ms)

let print_table oc r =
  Printf.fprintf oc "== %s ==\n" r.workload;
  List.iter
    (fun (gate, ok) ->
      Printf.fprintf oc "  gate %-44s %s\n" gate (if ok then "ok" else "FAILED"))
    r.gates;
  Printf.fprintf oc "  %-44s %d of %d attempted (%s)\n" "failed_share" r.failed
    r.attempted
    (json_float (failed_share r));
  let row mt =
    Printf.fprintf oc "  %-44s %14.4f %s\n" mt.name mt.value mt.unit_
  in
  List.iter row r.end_to_end;
  if r.per_layer <> [] then begin
    Printf.fprintf oc "  -- per layer --\n";
    List.iter row r.per_layer
  end;
  List.iter (fun (k, v) -> Printf.fprintf oc "  %-44s %s\n" k v) r.notes;
  flush oc

(* --- the metric catalogue --------------------------------------------------- *)

(* Every workload reports every metric (the contract of BENCHMARK.json).
   A per-layer metric of a layer a workload never calls reads 0. *)
let end_to_end_catalogue =
  [
    ("setup_s", "s");
    ("lat_p50_us", "us");
    ("node_cpu_us_per_op", "us");
    ("ctl_bytes_per_op.pram-partial", "B");
    ("ctl_bytes_per_op.causal-partial", "B");
    ("job_s", "s");
  ]

let per_layer_catalogue =
  [
    ("client.lat_p90_us", "us");
    ("client.lat_p99_us", "us");
    ("client.lat_p999_us", "us");
    ("client.samples", "count");
    ("client.read_p50_us", "us");
    ("client.write_p50_us", "us");
    ("client.late_p50_us", "us");
    ("client.late_p99_us", "us");
    ("client.cpu_us_per_op", "us");
    ("client.writev_per_op", "count");
    ("setup.wall_ms", "ms");
    ("setup.spawn_ms", "ms");
    ("setup.first_answer_ms", "ms");
    ("rpc.req_decode_ns", "ns");
    ("rpc.resp_encode_ns", "ns");
    ("rpc.req_encode_ns", "ns");
    ("rpc.resp_decode_ns", "ns");
    ("rpc.bytes_per_op", "B");
    ("proto.read_ns", "ns");
    ("proto.write_ns", "ns");
    ("proto.deliver_ns_per_msg", "ns");
    ("proto.msgs_per_write", "count");
    ("proto.payload_bytes_per_op", "B");
    ("session.segs_per_frame", "count");
    ("session.standalone_acks_per_op", "count");
    ("session.piggyback_share", "ratio");
    ("session.overhead_bytes_per_op", "B");
    ("session.retransmits", "count");
    ("session.first_tx_share", "ratio");
    ("live.peer_frames_per_op", "count");
    ("live.residual_us_per_op", "us");
    ("live.reconnects", "count");
    ("live.dropped", "count");
    ("node.minor_words_per_op", "words");
    ("node.peak_heap_mb", "MB");
    ("sim.events", "count");
    ("sim.s", "s");
    ("sim.events_per_s", "1/s");
    ("check.closure_s", "s");
    ("check.decide_s", "s");
    ("check.ops_per_s", "1/s");
    ("check.peak_heap_mb", "MB");
    ("saturation.merge_hits", "count");
    ("saturation.cycle_refutations", "count");
    ("saturation.greedy_hits", "count");
    ("saturation.fallbacks", "count");
    ("saturation.decided_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

(* Lay [values] out in catalogue order; a name outside the catalogue is a
   programming error, a catalogue name without a value reads 0. *)
let fill catalogue values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Report.fill: metric not in the catalogue: " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    catalogue

let ratio a b = if b = 0. then 0. else a /. b
