(* sim-check: the reproduction's own simulate-and-check path, in one
   process.  Seeded E1X-shaped instances (n = 32, 64 variables, 3 replicas
   each, 8 ops per process, 40% reads) each run on the deterministic
   simulator under pram-partial and under causal-partial; every history is
   checked against its protocol's guarantee with the sequential saturation
   checker ([Checker.check_cached]; no domain pool).

   Every timing is scaled to a fixed memory speed of the host: see
   [stream_slice]. *)

module Registry = Repro_core.Registry
module Memory = Repro_core.Memory
module Workload = Repro_core.Workload
module Runner = Repro_core.Runner
module Distribution = Repro_sharegraph.Distribution
module Checker = Repro_history.Checker
module Relcache = Repro_history.Relcache
module Saturation = Repro_history.Saturation
module History = Repro_history.History
module Op = Repro_history.Op
module Rng = Repro_util.Rng

let n_procs = 32
let n_vars = 64
let replicas = 3
let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 }
let protocols = [ "pram-partial"; "causal-partial" ]
let batch_size = 32

let instance_seed seed k = (seed * 7919) + k

let dist_of s =
  Distribution.random (Rng.create (s + n_procs)) ~n_procs ~n_vars
    ~replicas_per_var:replicas

(* --- the host's memory speed ------------------------------------------------- *)

(* The simulator and the checker allocate fast, so their speed follows the
   memory bandwidth the host's other tenants leave over, and that drifts by
   up to a factor of two over tens of seconds (an integer loop's speed does
   not move with it; a pointer chase follows it only loosely).  Before each
   instance the batch streams a fixed 4 MB buffer, held off the OCaml heap,
   three times (write, then read), and times it.  Each instance's timings
   are scaled by [nominal_stream_ns] over that slice's time: the instance as
   it would have run with the slice at its nominal speed.  The slice shares
   no code with the system and never touches the OCaml heap, so neither a
   change to the code under test nor the checker's heap moves it. *)
let stream_words = 1 lsl 19
let stream_passes = 3

(* about the slice's time on the 2-vCPU sizing VM at its fastest *)
let nominal_stream_ns = 5e6

let stream_buf = lazy Bigarray.(Array1.create int c_layout stream_words)

let stream_slice () =
  let b = Lazy.force stream_buf in
  let t0 = Trace.now_ns () in
  let sum = ref 0 in
  for pass = 1 to stream_passes do
    for i = 0 to stream_words - 1 do
      b.{i} <- i + pass
    done;
    for i = 0 to stream_words - 1 do
      sum := !sum + b.{i}
    done
  done;
  let t1 = Trace.now_ns () in
  ignore (Sys.opaque_identity !sum : int);
  t1 - t0

(* the relation the criterion's units are checked against, forced through
   the cache so the closure shows apart from the decision *)
let relation_of = function
  | Checker.Pram -> Relcache.pram
  | Checker.Causal -> Relcache.causal
  | c -> failwith ("sim-check: no relation for " ^ Checker.criterion_name c)

(* Exact counts of one batch: identical for a seed on every repetition. *)
type counts = {
  histories : int;
  inconsistent : int;
  events : int;  (** simulator steps *)
  ops : (string * int) list;  (** history ops *)
  msgs : (string * int) list;
  ctl : (string * int) list;
  payload : (string * int) list;
  writes : (string * int) list;
  sat : Saturation.counters;
}

type times = {
  sim_ns : int;
  closure_ns : int;
  decide_ns : int;
  wall_ns : int;  (** the batch, set-up and stream slices excluded *)
  stream_ns : int array;  (** per instance: the stream slice just before it *)
  make_ns : int array;  (** per instance: [Registry] [make], both protocols *)
  work_ns : int array;  (** per instance: simulate and check, set-up excluded *)
  cpu_s : float array;  (** per instance: CPU of this process, set-up included *)
  instance_ns : int array;  (** per instance: wall, set-up included *)
}

let run_batch ?(size = batch_size) ?(rep = 0) ~seed ~(trace : Trace.t) () =
  let on = trace.Trace.on in
  let tot = Trace.total trace in
  let make_t = tot "registry.make" and sim_t = tot "sim.run_random" in
  let clo_t = tot "relcache.closure" and chk_t = tot "checker.check_cached" in
  Saturation.reset_counters ();
  let histories = ref 0 and inconsistent = ref 0 in
  let events = ref 0 in
  let per = Hashtbl.create 4 in
  let bump name key v =
    let k = (name, key) in
    Hashtbl.replace per k (v + Option.value ~default:0 (Hashtbl.find_opt per k))
  in
  let sim_ns = ref 0 and closure_ns = ref 0 and decide_ns = ref 0 in
  let stream_ns = Array.make size 0 in
  let make_ns = Array.make size 0 and work_ns = Array.make size 0 in
  let cpu_s = Array.make size 0. and instance_ns = Array.make size 0 in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let start = Trace.now_ns () in
  for k = 0 to size - 1 do
    let s = instance_seed seed k in
    let dist = dist_of s in
    (* the same instances are sampled on every repetition; span op ids stay
       distinct across repetitions *)
    let sampled = Trace.sampled trace k in
    let op = (rep * size) + k in
    let root = if sampled then Trace.fresh_id trace else -1 in
    stream_ns.(k) <- stream_slice ();
    let c0 = cpu () in
    let i0 = Trace.now_ns () in
    List.iter
      (fun name ->
        let spec = Option.get (Registry.find name) in
        let t0 = Trace.now_ns () in
        let memory = spec.Registry.make ~dist ~seed:s () in
        let t1 = Trace.now_ns () in
        (* count simulator events by wrapping the step the runner drives *)
        let counted =
          {
            memory with
            Memory.step =
              (fun () ->
                let stepped = memory.Memory.step () in
                if stepped then incr events;
                stepped);
          }
        in
        let h = Workload.run_random ~profile ~seed:(s + 1) counted in
        let t2 = Trace.now_ns () in
        let rc = Relcache.create h in
        ignore (relation_of spec.Registry.guarantees rc);
        let t3 = Trace.now_ns () in
        let verdict = Checker.check_cached rc spec.Registry.guarantees in
        let t4 = Trace.now_ns () in
        make_ns.(k) <- make_ns.(k) + (t1 - t0);
        work_ns.(k) <- work_ns.(k) + (t4 - t1);
        sim_ns := !sim_ns + (t2 - t1);
        closure_ns := !closure_ns + (t3 - t2);
        decide_ns := !decide_ns + (t4 - t3);
        if on then begin
          Trace.add make_t (t1 - t0);
          Trace.add sim_t (t2 - t1);
          Trace.add clo_t (t3 - t2);
          Trace.add chk_t (t4 - t3);
          if sampled then
            List.iter
              (fun (layer, a, b) ->
                ignore (Trace.keep trace ~parent:root ~op ~layer ~start:a ~stop:b () : int))
              [
                ("registry.make", t0, t1);
                ("sim.run_random", t1, t2);
                ("relcache.closure", t2, t3);
                ("checker.check_cached", t3, t4);
              ]
        end;
        incr histories;
        if verdict <> Checker.Consistent then incr inconsistent;
        bump name `Ops (History.n_ops h);
        let m = memory.Memory.metrics () in
        bump name `Msgs m.Memory.messages_sent;
        bump name `Ctl m.Memory.control_bytes;
        bump name `Payload m.Memory.payload_bytes;
        bump name `Writes
          (Array.fold_left
             (fun a o -> if Op.is_write o then a + 1 else a)
             0 (History.ops h)))
      protocols;
    let i1 = Trace.now_ns () in
    cpu_s.(k) <- cpu () -. c0;
    instance_ns.(k) <- i1 - i0;
    if sampled then
      ignore
        (Trace.keep trace ~id:root ~parent:(-1) ~op ~layer:"simcheck.instance"
           ~start:i0 ~stop:i1 ()
          : int)
  done;
  let wall = Trace.now_ns () - start in
  let get key =
    List.map
      (fun name -> (name, Option.value ~default:0 (Hashtbl.find_opt per (name, key))))
      protocols
  in
  ( {
      histories = !histories;
      inconsistent = !inconsistent;
      events = !events;
      ops = get `Ops;
      msgs = get `Msgs;
      ctl = get `Ctl;
      payload = get `Payload;
      writes = get `Writes;
      sat = Saturation.counters ();
    },
    {
      sim_ns = !sim_ns;
      closure_ns = !closure_ns;
      decide_ns = !decide_ns;
      wall_ns =
        wall - Array.fold_left ( + ) 0 make_ns
        - Array.fold_left ( + ) 0 stream_ns;
      stream_ns;
      make_ns;
      work_ns;
      cpu_s;
      instance_ns;
    } )

(* The pinned input digest: for a seed's batch, each instance's placement
   and every process's script (think time, kind, variable, value) as
   [Workload.programs] draws it, read off a recording stand-in for the
   runner's api — no simulator involved. *)
let digest ?(size = batch_size) ~seed () =
  let b = Buffer.create 65536 in
  for k = 0 to size - 1 do
    let s = instance_seed seed k in
    let dist = dist_of s in
    for x = 0 to n_vars - 1 do
      Printf.bprintf b "x%d:%s\n" x
        (String.concat "," (List.map string_of_int (Distribution.holders dist x)))
    done;
    let programs = Workload.programs (Rng.create (s + 1)) dist profile in
    Array.iteri
      (fun p program ->
        let api =
          {
            Runner.proc = p;
            n_procs;
            read =
              (fun var ->
                Printf.bprintf b "p%d r%d\n" p var;
                Op.Init);
            write =
              (fun var v ->
                Printf.bprintf b "p%d w%d=%s\n" p var
                  (match v with Op.Init -> "_" | Op.Val v -> string_of_int v));
            peek = (fun _ -> Op.Init);
            yield = ignore;
            await = (fun _ -> ());
            sleep = (fun d -> Printf.bprintf b "p%d s%d\n" p d);
          }
        in
        program api)
      programs
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the workload ------------------------------------------------------------ *)

let run ~seed ~seconds ~(trace : Trace.t) ~pinned_digest ~default_seed =
  let pinned_ok = digest ~seed:default_seed () = pinned_digest in
  (* the batch repeats until --seconds have passed; traced, bare and traced
     repetitions alternate so the tracing overhead is measured on the same
     batch *)
  let deadline = Trace.now_ns () + (seconds * 1_000_000_000) in
  let bare = ref [] and traced = ref [] in
  let rep = ref 0 in
  while !rep < 2 || Trace.now_ns () < deadline do
    let tr = if trace.Trace.on && !rep mod 2 = 1 then trace else Trace.off in
    let r = run_batch ~rep:!rep ~seed ~trace:tr () in
    if tr.Trace.on then traced := r :: !traced else bare := r :: !bare;
    incr rep
  done;
  let counts = List.map fst (!bare @ !traced) in
  let c = List.hd counts in
  let bare_t = List.map snd !bare in
  let med f l = Report.median (List.map f l) in
  (* Each end-to-end timing is scaled to the nominal memory speed, instance
     by instance ([stream_slice]); takes, per instance, the median over the
     bare repetitions; then sums over the batch: a burst of host
     interference slows the instances it hits in one repetition, not the
     estimate.  [raw] leaves out the scaling, for the notes. *)
  let per_instance ?(raw = false) f =
    List.init batch_size (fun k ->
        Report.median
          (List.map
             (fun t ->
               if raw then f t k
               else f t k *. nominal_stream_ns /. float_of_int t.stream_ns.(k))
             bare_t))
  in
  let batch_sum ?raw f = List.fold_left ( +. ) 0. (per_instance ?raw f) in
  let work_s t k = float_of_int t.work_ns.(k) /. 1e9 in
  let instance_us t k = float_of_int t.instance_ns.(k) /. 1e3 in
  let cpu_s t k = t.cpu_s.(k) in
  let stream_ms t =
    Report.median (List.map float_of_int (Array.to_list t.stream_ns)) /. 1e6
  in
  let pick l name = float_of_int (List.assoc name l) in
  let reps = List.length counts in
  let gates =
    [
      ("inputs digest (default seed) is the pinned one", pinned_ok);
      ("every history consistent under its protocol's guarantee",
        List.for_all (fun k -> k.inconsistent = 0) counts);
      ("exact counts repeat on every repetition",
        List.for_all (fun k -> k = c) counts);
    ]
  in
  let all_ops = pick c.ops "pram-partial" +. pick c.ops "causal-partial" in
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  let per_proto l name = pick l name /. pick c.ops name in
  let end_to_end =
    Report.fill Report.end_to_end_catalogue
      [
        ("setup_s", batch_sum (fun t k -> float_of_int t.make_ns.(k) /. 1e9));
        ("lat_p50_us", Report.median (per_instance instance_us));
        ("node_cpu_us_per_op", batch_sum cpu_s *. 1e6 /. all_ops);
        ("ctl_bytes_per_op.pram-partial", per_proto c.ctl "pram-partial");
        ("ctl_bytes_per_op.causal-partial", per_proto c.ctl "causal-partial");
        ("job_s", batch_sum work_s);
      ]
  in
  let per_layer =
    if not trace.Trace.on then []
    else begin
      let tt = List.map snd !traced in
      let sim_s = med (fun t -> float_of_int t.sim_ns /. 1e9) tt in
      let closure_s = med (fun t -> float_of_int t.closure_ns /. 1e9) tt in
      let decide_s = med (fun t -> float_of_int t.decide_ns /. 1e9) tt in
      let s = c.sat in
      let decided =
        s.Saturation.merge_hits + s.Saturation.cycle_refutations
        + s.Saturation.greedy_hits
      in
      Report.fill Report.per_layer_catalogue
        [
          ("proto.msgs_per_write",
            pick c.msgs "pram-partial" /. pick c.writes "pram-partial");
          ("proto.payload_bytes_per_op", per_proto c.payload "pram-partial");
          ("sim.events", float_of_int c.events);
          ("sim.s", sim_s);
          ("sim.events_per_s", float_of_int c.events /. sim_s);
          ("check.closure_s", closure_s);
          ("check.decide_s", decide_s);
          ("check.ops_per_s", all_ops /. (closure_s +. decide_s));
          ("saturation.merge_hits", float_of_int s.Saturation.merge_hits);
          ("saturation.cycle_refutations",
            float_of_int s.Saturation.cycle_refutations);
          ("saturation.greedy_hits", float_of_int s.Saturation.greedy_hits);
          ("saturation.fallbacks", float_of_int s.Saturation.unknowns);
          ("saturation.decided_share",
            Report.ratio (float_of_int decided)
              (float_of_int (decided + s.Saturation.unknowns)));
          ("check.peak_heap_mb", peak_heap_mb);
          ("trace.overhead_share",
            (med (fun t -> float_of_int t.wall_ns) tt
            /. med (fun t -> float_of_int t.wall_ns) bare_t)
            -. 1.);
        ]
    end
  in
  {
    Report.workload = "sim-check";
    attempted = c.histories * reps;
    failed = List.fold_left (fun a k -> a + k.inconsistent) 0 counts;
    gates;
    end_to_end;
    per_layer;
    notes =
      [
        ("inputs digest (this seed)", digest ~seed ());
        ("instances x protocols per batch / repetitions",
          Printf.sprintf "%d x %d / %d" batch_size (List.length protocols) reps);
        ("history ops per batch", Printf.sprintf "%.0f" all_ops);
        ("stream slice, median (nominal)",
          Printf.sprintf "%.3f ms (%.3f ms)" (med stream_ms bare_t)
            (nominal_stream_ns /. 1e6));
        ("as measured (not scaled)",
          Printf.sprintf "job_s %.4f s, lat_p50_us %.1f us, node_cpu_us_per_op %.2f us"
            (batch_sum ~raw:true work_s)
            (Report.median (per_instance ~raw:true instance_us))
            (batch_sum ~raw:true cpu_s *. 1e6 /. all_ops));
        ("peak_heap_mb (not gated)", Printf.sprintf "%.3f MB" peak_heap_mb);
      ];
  }
