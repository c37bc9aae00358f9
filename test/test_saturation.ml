(* Engine parity: the polynomial saturation front-end and the
   backtracking search must agree on every verdict, for every criterion.
   Three sources of histories, in increasing realism:

   - random QCheck histories (arbitrary, i.e. mostly inconsistent, plus
     the consistent-by-construction generators, some with units wider
     than 64 ops);
   - the deterministic scenario bank (the paper's Figures 3-6 patterns,
     executed on the efficient protocols with adversarial latencies);
   - the 33 golden protocol/seed histories pinned by test_golden.ml.

   A disagreement here means the saturation engine is unsound or its
   Unknown fallback is broken, so the byte-identity golden digests would
   move with it.  The decision-mix group below pins, beyond verdicts,
   which procedure decides each unit. *)

module Checker = Repro_history.Checker
module History = Repro_history.History
module Relcache = Repro_history.Relcache
module Saturation = Repro_history.Saturation
module Unit_view = Repro_history.Unit_view
module Op = Repro_history.Op
module Generator = Repro_history.Generator
module Registry = Repro_core.Registry
module Workload = Repro_core.Workload
module Experiment = Repro_experiments.Experiment
module Distribution = Repro_sharegraph.Distribution
module Rng = Repro_util.Rng

let qcheck = QCheck_alcotest.to_alcotest

let verdict_name = function
  | Checker.Consistent -> "consistent"
  | Checker.Inconsistent -> "inconsistent"
  | Checker.Undecidable _ -> "undecidable"

let agree_on_all_criteria ?(name = "history") h =
  List.iter
    (fun criterion ->
      let search = Checker.check ~engine:Checker.Search criterion h in
      let saturation = Checker.check ~engine:Checker.Saturation criterion h in
      if verdict_name search <> verdict_name saturation then
        Alcotest.failf "%s: engines disagree on %s (search=%s saturation=%s)"
          name
          (Checker.criterion_name criterion)
          (verdict_name search) (verdict_name saturation))
    Checker.all_criteria

(* --- random histories ------------------------------------------------------ *)

let parity_prop make_history seed =
  let h = make_history seed in
  List.for_all
    (fun criterion ->
      verdict_name (Checker.check ~engine:Checker.Search criterion h)
      = verdict_name (Checker.check ~engine:Checker.Saturation criterion h))
    Checker.all_criteria

let test_parity_arbitrary =
  qcheck
    (QCheck.Test.make ~name:"parity_on_arbitrary_histories" ~count:150
       QCheck.small_int
       (parity_prop (fun seed ->
            Generator.arbitrary (Rng.create seed)
              { Generator.procs = 3; vars = 2; ops_per_proc = 4; read_ratio = 0.5 })))

let test_parity_arbitrary_wide =
  qcheck
    (QCheck.Test.make ~name:"parity_on_wider_arbitrary_histories" ~count:60
       QCheck.small_int
       (parity_prop (fun seed ->
            Generator.arbitrary (Rng.create (seed + 5_000))
              { Generator.procs = 4; vars = 3; ops_per_proc = 5; read_ratio = 0.6 })))

let test_parity_pram_consistent =
  qcheck
    (QCheck.Test.make ~name:"parity_on_pram_consistent_histories" ~count:80
       QCheck.small_int
       (parity_prop (fun seed ->
            Generator.pram_consistent (Rng.create seed)
              { Generator.procs = 3; vars = 3; ops_per_proc = 5; read_ratio = 0.5 })))

let test_parity_causal_consistent =
  qcheck
    (QCheck.Test.make ~name:"parity_on_causal_consistent_histories" ~count:80
       QCheck.small_int
       (parity_prop (fun seed ->
            Generator.causal_consistent (Rng.create seed)
              { Generator.procs = 3; vars = 2; ops_per_proc = 5; read_ratio = 0.5 })))

let test_parity_sequential_consistent =
  qcheck
    (QCheck.Test.make ~name:"parity_on_sequential_histories" ~count:80
       QCheck.small_int
       (parity_prop (fun seed ->
            Generator.sequential_consistent (Rng.create seed)
              { Generator.procs = 3; vars = 3; ops_per_proc = 4; read_ratio = 0.5 })))

(* Units wider than two row words: a few processes with long programs give
   Pram and Causal units of about 145 ops (five 32-bit words, like the
   sim-check shape below) whose search still finishes well under a second —
   the search's memo states are bounded by the program-order prefixes, so
   few processes keep it small.  Both consistent generators, each checked
   under both criteria. *)
let large_profile = { Generator.procs = 3; vars = 4; ops_per_proc = 60; read_ratio = 0.3 }

let test_parity_large_units =
  qcheck
    (QCheck.Test.make ~name:"parity_on_units_above_64_ops" ~count:15 QCheck.small_int
       (fun seed ->
         List.for_all
           (fun generate ->
             let h = generate (Rng.create (seed + 9_000)) large_profile in
             let rc = Relcache.create h in
             List.iter
               (fun p ->
                 let k = List.length (Relcache.proc_ids rc p) in
                 if k <= 64 then QCheck.Test.fail_reportf "unit p%d has only %d ops" p k)
               (List.init large_profile.Generator.procs Fun.id);
             List.for_all
               (fun criterion ->
                 verdict_name (Checker.check ~engine:Checker.Search criterion h)
                 = verdict_name (Checker.check ~engine:Checker.Saturation criterion h))
               [ Checker.Pram; Checker.Causal ])
           [ Generator.pram_consistent; Generator.causal_consistent ]))

(* --- deterministic scenario bank ------------------------------------------- *)

let scenario_seed = 77

let test_scenario_bank_parity () =
  List.iter
    (fun (spec : Registry.spec) ->
      List.iter
        (fun (scenario, h) ->
          agree_on_all_criteria
            ~name:(Printf.sprintf "%s/%s" spec.Registry.name scenario)
            h)
        (Experiment.adversarial_histories spec ~seed:scenario_seed))
    Registry.all

(* --- the 33 golden protocol/seed histories --------------------------------- *)

(* mirror test_golden.ml's run_spec: same distribution and workload, so
   these are exactly the histories whose digests are pinned *)
let golden_history (spec : Registry.spec) seed =
  let dist =
    if spec.Registry.requires_full_replication then
      Distribution.full ~n_procs:6 ~n_vars:8
    else
      Distribution.random (Rng.create (777 + seed)) ~n_procs:6 ~n_vars:8
        ~replicas_per_var:3
  in
  let memory = spec.Registry.make ~dist ~seed () in
  Workload.run_random ~seed:(seed + 1) memory

let test_golden_histories_parity () =
  List.iter
    (fun seed ->
      List.iter
        (fun (spec : Registry.spec) ->
          agree_on_all_criteria
            ~name:(Printf.sprintf "%s/%d" spec.Registry.name seed)
            (golden_history spec seed))
        Registry.all)
    [ 11; 22; 33 ]

(* --- the sim-check instance shape ------------------------------------------ *)

(* The counters, in the order the pins list them. *)
let mix () =
  let c = Saturation.counters () in
  [ c.Saturation.merge_hits; c.cycle_refutations; c.greedy_hits; c.unknowns; c.acyclic_hits ]

(* The shape the repository benchmark's sim-check workload decides: n = 32,
   64 variables on 3 replicas each, 8 ops per process, 40% reads, under
   pram-partial and causal-partial, each history against its protocol's
   guarantee — units of about 158 ops.  The search cannot decide units this
   wide, so [Saturation.decide] is called directly (the oracle would never
   finish), on views built by [unit_of rc relation p]: the reference
   construction, and the write skeleton the checker decides these units
   on.  The counters pin which step decides each unit: a change that moves
   units from one step to another fails here.  Of the 256 units, the merge
   decides 124 PRAM units, and an acyclic saturation with ordered reads
   the 128 causal units and the 4 PRAM units that have no read, so no
   chain to merge along. *)
let e1x_shape_counters ~unit_of seeds =
  let n_procs = 32 in
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
  Saturation.reset_counters ();
  List.iter
    (fun s ->
      let dist =
        Distribution.random (Rng.create (s + n_procs)) ~n_procs ~n_vars:64
          ~replicas_per_var:3
      in
      List.iter
        (fun name ->
          let spec = Option.get (Registry.find name) in
          let h = Workload.run_random ~profile ~seed:(s + 1) (spec.Registry.make ~dist ~seed:s ()) in
          let rc = Relcache.create h in
          let relation =
            match spec.Registry.guarantees with
            | Checker.Pram -> Relcache.pram rc
            | Checker.Causal -> Relcache.causal rc
            | c -> Alcotest.failf "unexpected guarantee %s" (Checker.criterion_name c)
          in
          let view_of = unit_of rc relation in
          for p = 0 to n_procs - 1 do
            let view = view_of p in
            match Saturation.decide view with
            | Saturation.Consistent -> ()
            | Saturation.Inconsistent | Saturation.Unknown ->
                Alcotest.failf "%s seed %d: unit p%d (%d ops) not proved consistent" name s p
                  (Array.length view.Unit_view.ops)
          done)
        [ "pram-partial"; "causal-partial" ])
    seeds;
  mix ()

let made rc relation p =
  Unit_view.make (Relcache.index rc) ~subset:(Relcache.proc_ids rc p) ~relation

let on_skeleton rc relation =
  Unit_view.proc_unit (Unit_view.skeleton (Relcache.index rc) relation)

let test_e1x_decision_mix () =
  List.iter
    (fun (construction, unit_of) ->
      Alcotest.(check (list int))
        (construction ^ ": merge / cycle / greedy / fallback / acyclic")
        [ 124; 0; 0; 0; 132 ]
        (e1x_shape_counters ~unit_of [ 1; 2; 3; 4 ]))
    [ ("Unit_view.make", made); ("write skeleton", on_skeleton) ]

(* The same pin on small generated histories, every criterion: here the
   greedy gets stuck on a few units (the fallback column), so a change to
   which write it picks, or to when it gives up, moves the counts even
   where the verdicts stay the same.  The merge runs only on the units of
   an open relation (PRAM, slow), and an acyclic saturation whose rows
   order the unit's reads proves the causal, semi-causal, PRAM and slow
   units the merge leaves; the greedy decides the lazy, cache and
   sequential units whose reads stay unordered. *)
let test_generated_decision_mix () =
  List.iter
    (fun (name, generate, expected) ->
      Saturation.reset_counters ();
      for seed = 0 to 199 do
        let h =
          generate (Rng.create seed)
            { Generator.procs = 4; vars = 3; ops_per_proc = 6; read_ratio = 0.6 }
        in
        List.iter
          (fun criterion -> ignore (Checker.check ~engine:Checker.Saturation criterion h))
          Checker.all_criteria
      done;
      Alcotest.(check (list int))
        (name ^ ": merge / cycle / greedy / fallback / acyclic")
        expected (mix ()))
    [
      ("pram-consistent", Generator.pram_consistent, [ 2556; 68; 1871; 4; 2660 ]);
      ("causal-consistent", Generator.causal_consistent, [ 2554; 68; 1872; 4; 2657 ]);
    ]

(* --- bit rows -------------------------------------------------------------- *)

let test_row_iteration =
  qcheck
    (QCheck.Test.make ~name:"iter_row_and_first_such_match_a_bit_scan" ~count:200
       QCheck.(pair (int_range 0 200) small_int)
       (fun (k, seed) ->
         let rng = Random.State.make [| seed |] in
         let row = Array.make (Unit_view.words_for k) 0 in
         let bits = List.filter (fun _ -> Random.State.int rng 4 = 0) (List.init k Fun.id) in
         List.iter (Unit_view.add row) bits;
         let seen = ref [] in
         Unit_view.iter_row (fun i -> seen := i :: !seen) row;
         let odd = List.find_opt (fun i -> i land 1 = 1) bits in
         List.rev !seen = bits
         && Unit_view.first_such (fun i -> i land 1 = 1) row
            = Option.value ~default:(-1) odd))

(* --- the writer index ------------------------------------------------------ *)

(* The per-unit value lookup the history's writer index replaced, kept as
   the oracle: the unit's writers per variable slot, newest first; a read's
   source is the first of them with its value, and a write that finds an
   earlier writer of its value makes the unit ambiguous. *)
let oracle_sources (view : Unit_view.t) =
  let ops = view.Unit_view.ops in
  let writers = Array.make (max view.Unit_view.n_vars 1) [] in
  let writer_of (o : Op.t) =
    List.find_opt
      (fun w -> Op.equal_value ops.(w).Op.value o.value)
      writers.(Unit_view.var_slot view o)
  in
  let dup_writer = ref false in
  Array.iteri
    (fun i (o : Op.t) ->
      if Op.is_write o then begin
        if writer_of o <> None then dup_writer := true;
        let sl = Unit_view.var_slot view o in
        writers.(sl) <- i :: writers.(sl)
      end)
    ops;
  let missing_source = ref false in
  let source =
    Array.map
      (fun (o : Op.t) ->
        match (o.kind, o.value) with
        | Op.Write, _ -> -2
        | Op.Read, Op.Init -> -1
        | Op.Read, Op.Val _ -> (
            match writer_of o with
            | Some w -> w
            | None ->
                missing_source := true;
                -2))
      ops
  in
  (source, !missing_source, !dup_writer)

(* Histories far from differentiated: few values, so (variable, value)
   pairs repeat across writes, reads of values nobody wrote, Init-reads,
   and writes of Init (which [History.of_lists] lets through). *)
let messy_history rng =
  History.of_lists
    (List.init
       (1 + Random.State.int rng 4)
       (fun _ ->
         List.init (Random.State.int rng 8) (fun _ ->
             let kind = if Random.State.bool rng then Op.Read else Op.Write in
             let value =
               if Random.State.int rng 5 = 0 then Op.Init
               else Op.Val (1 + Random.State.int rng 3)
             in
             (kind, Random.State.int rng 3, value))))

let test_index_matches_unit_lookup =
  qcheck
    (QCheck.Test.make ~name:"writer_index_matches_the_per_unit_lookup" ~count:500
       QCheck.small_int
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let h = messy_history rng in
         let index = Unit_view.index (History.ops h) ~writers:(History.writers h) in
         let relation = Repro_util.Graph.create (History.n_ops h) in
         List.for_all
           (fun _ ->
             (* a shuffled subset: local order is not global order *)
             let subset =
               List.init (History.n_ops h) Fun.id
               |> List.filter (fun _ -> Random.State.int rng 3 > 0)
               |> List.map (fun gid -> (Random.State.bits rng, gid))
               |> List.sort compare |> List.map snd
             in
             let view = Unit_view.make index ~subset ~relation in
             let source, missing_source, dup_writer = oracle_sources view in
             view.Unit_view.source = source
             && view.Unit_view.missing_source = missing_source
             && view.Unit_view.dup_writer = dup_writer)
           [ 1; 2; 3 ]))

(* --- process units on the write skeleton ------------------------------------- *)

(* Which procedure decided a view, as counter deltas, with the outcome. *)
let decided view =
  let c0 = Saturation.counters () in
  let outcome = Saturation.decide view in
  let c1 = Saturation.counters () in
  ( outcome,
    [
      c1.Saturation.merge_hits - c0.Saturation.merge_hits;
      c1.cycle_refutations - c0.cycle_refutations;
      c1.greedy_hits - c0.greedy_hits;
      c1.unknowns - c0.unknowns;
      c1.acyclic_hits - c0.acyclic_hits;
    ] )

(* [proc_unit] numbers a process's unit writes first, then the process's
   reads; [make] numbers it in global-id order.  Under that renumbering the
   two views must hold the same rows, sources, flags, writes per variable
   and programs, and
   [Saturation.decide] must reach the same outcome through the same
   procedure. *)
let same_unit (made : Unit_view.t) (built : Unit_view.t) =
  let k = Array.length made.Unit_view.ops in
  let all n f = List.for_all f (List.init n Fun.id) in
  List.sort compare (Array.to_list made.Unit_view.gids)
  = List.sort compare (Array.to_list built.Unit_view.gids)
  &&
  let local = Hashtbl.create k in
  Array.iteri (fun i gid -> Hashtbl.replace local gid i) built.Unit_view.gids;
  let pos = Array.map (Hashtbl.find local) made.Unit_view.gids in
  let at i = pos.(i) in
  let rows_agree m b =
    let agree = ref true in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        if Unit_view.row_mem m i j <> Unit_view.row_mem b (at i) (at j) then agree := false
      done
    done;
    !agree
  in
  let program v q =
    if q < Array.length v.Unit_view.programs then Array.to_list v.Unit_view.programs.(q) else []
  in
  rows_agree made.Unit_view.succs built.Unit_view.succs
  && rows_agree made.Unit_view.preds built.Unit_view.preds
  && all k (fun i ->
         let s = made.Unit_view.source.(i) in
         built.Unit_view.source.(at i) = if s >= 0 then at s else s)
  && made.Unit_view.missing_source = built.Unit_view.missing_source
  && made.Unit_view.dup_writer = built.Unit_view.dup_writer
  && made.Unit_view.closed = built.Unit_view.closed
  && Array.for_all
       (fun (o : Op.t) ->
         List.map at made.Unit_view.slot_writes.(Unit_view.var_slot made o)
         = built.Unit_view.slot_writes.(Unit_view.var_slot built o))
       made.Unit_view.ops
  && all
       (max (Array.length made.Unit_view.programs) (Array.length built.Unit_view.programs))
       (fun q -> List.map at (program made q) = program built q)

(* Every generator of this suite, the non-differentiated [messy_history]
   among them, under the five process-family relations when the read-from
   is determined, and always under program order (an open relation, and
   the only one a history with dangling or ambiguous reads has).  One seed
   in five also draws a large-profile history, whose units span five row
   words. *)
let test_skeleton_units_match_make =
  let histories seed =
    let of_gen gen profile = gen (Rng.create seed) profile in
    [
      of_gen Generator.arbitrary
        { Generator.procs = 3; vars = 2; ops_per_proc = 4; read_ratio = 0.5 };
      of_gen Generator.arbitrary
        { Generator.procs = 4; vars = 3; ops_per_proc = 5; read_ratio = 0.6 };
      of_gen Generator.pram_consistent
        { Generator.procs = 3; vars = 3; ops_per_proc = 5; read_ratio = 0.5 };
      of_gen Generator.causal_consistent
        { Generator.procs = 3; vars = 2; ops_per_proc = 5; read_ratio = 0.5 };
      of_gen Generator.sequential_consistent
        { Generator.procs = 3; vars = 3; ops_per_proc = 4; read_ratio = 0.5 };
      messy_history (Random.State.make [| seed |]);
    ]
    @ if seed mod 5 = 0 then [ of_gen Generator.causal_consistent large_profile ] else []
  in
  qcheck
    (QCheck.Test.make ~name:"skeleton_units_match_make" ~count:100 QCheck.small_int
       (fun seed ->
         List.for_all
           (fun h ->
             let rc = Relcache.create h in
             let relations =
               Relcache.program_order rc
               ::
               (match Relcache.read_from rc with
               | Error _ -> []
               | Ok _ ->
                   List.map
                     (fun relation -> relation rc)
                     [
                       Relcache.causal;
                       Relcache.semi_causal;
                       Relcache.lazy_causal;
                       Relcache.lazy_semi_causal;
                       Relcache.pram;
                     ])
             in
             List.for_all
               (fun relation ->
                 let skeleton = Unit_view.skeleton (Relcache.index rc) relation in
                 List.for_all
                   (fun p ->
                     let reference = made rc relation p in
                     let built = Unit_view.proc_unit skeleton p in
                     same_unit reference built
                     && (decided reference = decided built
                        || QCheck.Test.fail_reportf "unit p%d decided differently:\n%s" p
                             (History.to_string h)))
                   (List.init (History.n_procs h) Fun.id))
               relations)
           (histories seed)))

(* --- the decision -------------------------------------------------------------- *)

(* Differentiated histories from three generators over [profiles]. *)
let generated_histories profiles seed =
  List.concat_map
    (fun generate -> List.map (fun profile -> generate (Rng.create seed) profile) profiles)
    [ Generator.arbitrary; Generator.pram_consistent; Generator.causal_consistent ]

let small_profiles =
  [
    { Generator.procs = 3; vars = 2; ops_per_proc = 4; read_ratio = 0.5 };
    { Generator.procs = 4; vars = 3; ops_per_proc = 5; read_ratio = 0.6 };
    { Generator.procs = 3; vars = 3; ops_per_proc = 6; read_ratio = 0.4 };
    { Generator.procs = 5; vars = 2; ops_per_proc = 4; read_ratio = 0.7 };
  ]

(* Every unit of every criterion of [h], as the checker decomposes the
   criterion, with the unit's view.  When the read-from is undetermined
   only the program-order criteria have units. *)
let criterion_units h f =
  let rc = Relcache.create h in
  let criteria =
    if Result.is_ok (Relcache.read_from rc) then Checker.all_criteria
    else [ Checker.Sequential; Checker.Cache ]
  in
  List.iter
    (fun criterion ->
      List.iter
        (fun (key, subset, relation) ->
          f criterion (Checker.unit_key_name key)
            (Unit_view.make (Relcache.index rc) ~subset ~relation)
            ~subset ~relation)
        (Checker.Private.units criterion rc))
    criteria

(* The saturated rows order every pair of the unit's reads. *)
let reads_ordered (view : Unit_view.t) rows =
  let reads =
    List.filter
      (fun i -> Op.is_read view.Unit_view.ops.(i))
      (List.init (Array.length view.Unit_view.ops) Fun.id)
  in
  List.for_all
    (fun i ->
      List.for_all
        (fun j -> i = j || Unit_view.row_mem rows i j || Unit_view.row_mem rows j i)
        reads)
    reads

(* On a differentiated history a unit's saturation refutes it by a cycle
   (or by a read no write supplies), and then the search finds no
   serialization; it proves it by an acyclic result whose rows order every
   pair of the unit's reads, and then the search finds one.  That is the
   claim [Saturation.decide] rests on, for every criterion; of an acyclic
   unit whose reads stay unordered nothing is claimed, and the greedy
   decides it.  Every unit of every criterion is checked, on the small
   profiles for each qcheck seed and on [large_profile] for four fixed
   seeds.  Over the run a cycle must occur, so must a unit wider than 64
   ops, and the causal, semi-causal, PRAM and slow criteria must each have
   units saturation proves.

   The second derivation rule (a write before a read precedes the read's
   source) is what makes the acyclic side hold: on seeds 0-300 of the small
   profiles, a variant that skipped it produced acyclic, read-ordered,
   unserializable units of all eight criteria (70 PRAM, 30 causal and 73
   slow units among them), and this test fails on it.  The read-order
   condition is checked although no generated history exercises it: on
   seeds 0-20 000 of the small profiles, the search serialized every one
   of 1 214 874 acyclic units whose reads stay unordered.  The proof needs
   it all the same. *)
let test_saturation_decides () =
  let cyclic = ref 0 and wide = ref 0 in
  let proved = Hashtbl.create 8 in
  let check h =
    criterion_units h (fun criterion key view ~subset ~relation ->
        let k = Array.length view.Unit_view.ops in
        if k > 64 then incr wide;
        let saturated =
          if view.Unit_view.missing_source then `Cycle
          else
            match Saturation.Private.saturate view with
            | `Cycle -> `Cycle
            | `Acyclic rows -> if reads_ordered view rows then `Proved else `Unordered
        in
        if saturated <> `Unordered then
          let serializable = Checker.find_serialization h ~subset ~relation <> None in
          match (saturated, serializable) with
          | `Proved, true ->
              Hashtbl.replace proved criterion
                (1 + Option.value ~default:0 (Hashtbl.find_opt proved criterion))
          | `Cycle, false -> incr cyclic
          | _ ->
              Alcotest.failf "%s unit %s (%d ops): saturation %s, search %b\n%s"
                (Checker.criterion_name criterion) key k
                (if saturated = `Cycle then "cyclic" else "acyclic with ordered reads")
                serializable (History.to_string h))
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 29 |])
    (QCheck.Test.make ~name:"saturation_with_ordered_reads_iff_serializable" ~count:150
       QCheck.small_int (fun seed ->
         List.iter check (generated_histories small_profiles seed);
         true));
  (* [large_profile] once on each of a few seeds: the search's time on
     its refuted units is most of this test's *)
  List.iter
    (fun seed -> List.iter check (generated_histories [ large_profile ] seed))
    [ 0; 40; 70; 90 ];
  List.iter
    (fun (what, n) -> if n = 0 then Alcotest.failf "no %s was checked" what)
    ([ ("unit with a cycle", !cyclic); ("unit above 64 ops", !wide) ]
    @ List.map
        (fun criterion ->
          ( Checker.criterion_name criterion ^ " unit proved by saturation",
            Option.value ~default:0 (Hashtbl.find_opt proved criterion) ))
        [ Checker.Causal; Checker.Semi_causal; Checker.Pram; Checker.Slow ])

(* [Saturation.decide], its Unknown settled by the search, reaches the
   search's verdict on every unit of every criterion: over the generators
   above and over histories that are not differentiated: [messy_history]'s
   and two fixed ones, a duplicate write and a write of [Init]. *)
let test_decide_matches_search =
  let fixed =
    [
      (* p0 and p1 both write 1 to x; nobody reads it *)
      History.of_lists
        [
          [ (Op.Write, 0, Op.Val 1); (Op.Write, 1, Op.Val 2) ];
          [ (Op.Write, 0, Op.Val 1); (Op.Read, 1, Op.Val 2) ];
        ];
      (* a write of Init, then an Init-read after a read of 1 *)
      History.of_lists
        [
          [ (Op.Write, 0, Op.Init); (Op.Write, 0, Op.Val 1) ];
          [ (Op.Read, 0, Op.Val 1); (Op.Read, 0, Op.Init) ];
        ];
    ]
  in
  qcheck
    (QCheck.Test.make ~name:"decide_matches_search" ~count:100 QCheck.small_int
       (fun seed ->
         let messy = List.init 5 (fun i -> messy_history (Random.State.make [| seed; i |])) in
         List.iter
           (fun h ->
             criterion_units h (fun criterion key view ~subset ~relation ->
                 let search = Checker.find_serialization h ~subset ~relation <> None in
                 let decided =
                   match Saturation.decide view with
                   | Saturation.Consistent -> true
                   | Saturation.Inconsistent -> false
                   | Saturation.Unknown -> search
                 in
                 if decided <> search then
                   QCheck.Test.fail_reportf "%s unit %s: decide %b, search %b\n%s"
                     (Checker.criterion_name criterion) key decided search (History.to_string h)))
           (fixed @ messy @ generated_histories small_profiles seed);
         true))

(* --- saturation over a closed relation ------------------------------------- *)

(* A view whose relation is closed skips saturation's own closure and only
   scans the diagonal; forcing [closed = false] takes the closure path.
   Both must give the same rows and the same Cycle outcomes, on units of
   the three closed relations, from arbitrary (mostly refuted) and causal
   histories, some wider than two row words.  Each outcome must occur:
   a cyclic relation, a cycle found by saturation, and an acyclic result. *)
let test_closed_saturation_parity () =
  let cyclic_relation = ref 0 and derived_cycle = ref 0 and acyclic = ref 0 in
  let histories =
    List.init 150 (fun seed ->
        Generator.arbitrary (Rng.create seed)
          { Generator.procs = 3; vars = 2; ops_per_proc = 5; read_ratio = 0.5 })
    @ List.init 40 (fun seed ->
          Generator.causal_consistent (Rng.create seed)
            { Generator.procs = 3; vars = 3; ops_per_proc = 6; read_ratio = 0.5 })
    @ List.init 4 (fun seed -> Generator.causal_consistent (Rng.create seed) large_profile)
  in
  List.iteri
    (fun i h ->
      let rc = Relcache.create h in
      if Result.is_ok (Relcache.read_from rc) then
        List.iter
          (fun (name, relation) ->
            let relation = relation rc in
            for p = 0 to History.n_procs h - 1 do
              let view =
                Unit_view.make (Relcache.index rc) ~subset:(Relcache.proc_ids rc p) ~relation
              in
              if not view.Unit_view.closed then
                Alcotest.failf "history %d: the %s relation is not marked closed" i name;
              let k = Array.length view.Unit_view.ops in
              if not view.Unit_view.missing_source then
                match
                  ( Saturation.Private.saturate view,
                    Saturation.Private.saturate { view with Unit_view.closed = false } )
                with
                | `Cycle, `Cycle ->
                    let on_diagonal = ref false in
                    for j = 0 to k - 1 do
                      if Unit_view.row_mem view.Unit_view.succs j j then on_diagonal := true
                    done;
                    incr (if !on_diagonal then cyclic_relation else derived_cycle)
                | `Acyclic rows, `Acyclic rows' when rows = rows' -> incr acyclic
                | _ ->
                    Alcotest.failf "history %d, %s unit p%d: the two saturations differ" i
                      name p
            done)
          [
            ("causal", Relcache.causal);
            ("lazy-causal", Relcache.lazy_causal);
            ("semi-causal", Relcache.semi_causal);
          ])
    histories;
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "no unit with %s was compared" what)
    [
      ("a cyclic relation", !cyclic_relation);
      ("a cycle found by saturation", !derived_cycle);
      ("an acyclic saturation", !acyclic);
    ]

(* --- direct unit-level checks ---------------------------------------------- *)

(* reads of values nobody wrote must be refuted without the search *)
let test_missing_writer_refuted () =
  let h =
    History.of_lists
      [
        [ (Repro_history.Op.Write, 0, Repro_history.Op.Val 1) ];
        [ (Repro_history.Op.Read, 0, Repro_history.Op.Val 9) ];
      ]
  in
  let rc = Relcache.create h in
  let subset = [ 0; 1 ] in
  let relation = Relcache.program_order rc in
  (match Saturation.decide (Unit_view.make (Relcache.index rc) ~subset ~relation) with
  | Saturation.Inconsistent -> ()
  | Saturation.Consistent -> Alcotest.fail "dangling read accepted"
  | Saturation.Unknown -> Alcotest.fail "dangling read not refuted directly");
  Alcotest.(check bool)
    "search agrees" false
    (Checker.serializable ~engine:Checker.Search h ~subset ~relation)

(* Two writers of one value: the view takes the later, p2's, as the read
   of 1's source, and saturation from that source finds a cycle, though
   p0's write could supply the value.  [decide] must leave the unit to
   the search, so the engines agree. *)
let test_duplicate_writer_searched () =
  let h =
    History.of_lists
      [
        [ (Op.Write, 0, Op.Val 1) ];
        [ (Op.Read, 0, Op.Val 3); (Op.Read, 0, Op.Val 1) ];
        [ (Op.Write, 0, Op.Val 1); (Op.Write, 0, Op.Val 3) ];
      ]
  in
  let rc = Relcache.create h in
  let subset = List.init (History.n_ops h) Fun.id in
  let relation = Relcache.program_order rc in
  let view = Unit_view.make (Relcache.index rc) ~subset ~relation in
  if Saturation.Private.saturate view <> `Cycle then
    Alcotest.fail "saturation from the later writer is acyclic";
  if Saturation.decide view <> Saturation.Unknown then Alcotest.fail "decide decided the unit";
  Alcotest.(check bool)
    "engines agree"
    (Checker.serializable ~engine:Checker.Search h ~subset ~relation)
    (Checker.serializable ~engine:Checker.Saturation h ~subset ~relation)

(* the counters move when the engine actually runs *)
let test_counters_move () =
  Saturation.reset_counters ();
  let h =
    Generator.causal_consistent (Rng.create 4242)
      { Generator.procs = 3; vars = 2; ops_per_proc = 5; read_ratio = 0.5 }
  in
  (match Checker.check ~engine:Checker.Saturation Checker.Causal h with
  | Checker.Consistent -> ()
  | _ -> Alcotest.fail "causal-consistent history rejected");
  let c = Saturation.counters () in
  Alcotest.(check bool)
    "some polynomial path fired" true
    (c.Saturation.merge_hits + c.Saturation.greedy_hits + c.Saturation.acyclic_hits > 0)

let () =
  Alcotest.run "repro_saturation"
    [
      ( "qcheck-parity",
        [
          test_parity_arbitrary;
          test_parity_arbitrary_wide;
          test_parity_pram_consistent;
          test_parity_causal_consistent;
          test_parity_sequential_consistent;
          test_parity_large_units;
        ] );
      ( "scenario-bank",
        [
          Alcotest.test_case "figures 3-6 + hoop-leak parity" `Quick
            test_scenario_bank_parity;
        ] );
      ( "golden-histories",
        [
          Alcotest.test_case "33 protocol/seed histories parity" `Slow
            test_golden_histories_parity;
        ] );
      ( "units",
        [
          Alcotest.test_case "missing writer refuted" `Quick
            test_missing_writer_refuted;
          Alcotest.test_case "duplicate writer searched" `Quick
            test_duplicate_writer_searched;
          Alcotest.test_case "counters move" `Quick test_counters_move;
          test_row_iteration;
          test_index_matches_unit_lookup;
          test_skeleton_units_match_make;
          Alcotest.test_case "saturation with ordered reads decides" `Quick
            test_saturation_decides;
          test_decide_matches_search;
          Alcotest.test_case "closed relation saturates alike" `Quick
            test_closed_saturation_parity;
        ] );
      ( "decision-mix",
        [
          Alcotest.test_case "sim-check shape" `Quick test_e1x_decision_mix;
          Alcotest.test_case "generated histories" `Quick test_generated_decision_mix;
        ] );
    ]
