let check_prob ctx name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "%s: %s probability %f out of [0,1]" ctx name p)

module Plan = struct
  type link = { drop : float; duplicate : float; reorder : float }

  type partition = { from_t : int; until_t : int; group : int list }

  type crash = { node : int; after_sends : int; restart_after : int option }

  type dcrash = {
    dnode : int;
    point : string;
    powercut : bool;
    after_hits : int;
    drestart_after : int option;
  }

  type reconfig = { rnode : int; at_ms : int }

  type plan = {
    seed : int;
    default_link : link;
    links : ((int * int) * link) list;
    partitions : partition list;
    crashes : crash list;
    dcrashes : dcrash list;
    joins : reconfig list;
    leaves : reconfig list;
    delay_max : int;
  }

  type t = plan

  let clean = { drop = 0.0; duplicate = 0.0; reorder = 0.0 }

  let none =
    {
      seed = 0;
      default_link = clean;
      links = [];
      partitions = [];
      crashes = [];
      dcrashes = [];
      joins = [];
      leaves = [];
      delay_max = 8;
    }

  let is_none t =
    t.default_link = clean && t.links = [] && t.partitions = []
    && t.crashes = [] && t.dcrashes = [] && t.joins = [] && t.leaves = []

  let clauses t =
    List.filter_map
      (fun (kind, used) -> if used then Some kind else None)
      [
        ("drop", t.default_link.drop > 0.0);
        ("dup", t.default_link.duplicate > 0.0);
        ("reorder", t.default_link.reorder > 0.0);
        ("delay", t.delay_max <> none.delay_max);
        ("link", t.links <> []);
        ("part", t.partitions <> []);
        ("crash", t.crashes <> []);
        ("dcrash", t.dcrashes <> []);
        ("join", t.joins <> []);
        ("leave", t.leaves <> []);
      ]

  let link_for t ~src ~dst =
    match List.assoc_opt (src, dst) t.links with
    | Some l -> l
    | None -> t.default_link

  let partitioned t ~now ~src ~dst =
    List.exists
      (fun p ->
        now >= p.from_t && now < p.until_t
        && List.mem src p.group <> List.mem dst p.group)
      t.partitions

  let crash_for t node =
    List.find_opt (fun c -> c.node = node) t.crashes

  let dcrash_for t node =
    List.find_opt (fun c -> c.dnode = node) t.dcrashes

  (* A private per-link decision stream: decisions for link (src,dst) depend
     only on the plan seed and the link's own send index, never on traffic
     elsewhere — the property that makes the same plan reproduce identically
     on the simulator and on live TCP. *)
  let link_seed t ~src ~dst =
    let mix = (t.seed * 0x9E3779B1) lxor (src * 0x85EBCA77) lxor dst in
    (mix lxor 0x5DEECE66) land max_int

  let validate_link ctx l =
    check_prob ctx "drop" l.drop;
    check_prob ctx "duplicate" l.duplicate;
    check_prob ctx "reorder" l.reorder

  let validate ?n t =
    let ctx = "Fault.Plan.validate" in
    let check_node who p =
      if p < 0 then invalid_arg (Printf.sprintf "%s: negative %s %d" ctx who p);
      match n with
      | Some n when p >= n ->
          invalid_arg
            (Printf.sprintf "%s: %s %d out of range for %d nodes" ctx who p n)
      | _ -> ()
    in
    validate_link ctx t.default_link;
    let lseen = Hashtbl.create 4 in
    List.iter
      (fun ((s, d), l) ->
        check_node "link endpoint" s;
        check_node "link endpoint" d;
        if Hashtbl.mem lseen (s, d) then
          invalid_arg
            (Printf.sprintf "%s: duplicate link entry for %d>%d" ctx s d);
        Hashtbl.add lseen (s, d) ();
        validate_link ctx l)
      t.links;
    List.iter
      (fun p ->
        if p.from_t < 0 || p.until_t < p.from_t then
          invalid_arg
            (Printf.sprintf "%s: bad partition window %d..%d" ctx p.from_t
               p.until_t);
        if p.group = [] then invalid_arg (ctx ^ ": empty partition group");
        List.iter (check_node "partition member") p.group)
      t.partitions;
    let seen = Hashtbl.create 4 in
    List.iter
      (fun c ->
        check_node "crash node" c.node;
        if Hashtbl.mem seen c.node then
          invalid_arg
            (Printf.sprintf "%s: duplicate crash entry for node %d" ctx c.node);
        Hashtbl.add seen c.node ();
        if c.after_sends < 1 then
          invalid_arg
            (Printf.sprintf "%s: crash after %d sends (need >= 1)" ctx
               c.after_sends);
        (match c.restart_after with
        | Some d when d < 0 ->
            invalid_arg (Printf.sprintf "%s: negative restart delay %d" ctx d)
        | _ -> ()))
      t.crashes;
    let dseen = Hashtbl.create 4 in
    List.iter
      (fun c ->
        check_node "dcrash node" c.dnode;
        if Hashtbl.mem dseen c.dnode then
          invalid_arg
            (Printf.sprintf "%s: duplicate dcrash entry for node %d" ctx
               c.dnode);
        Hashtbl.add dseen c.dnode ();
        if not (Repro_durable.Fsio.Crashpoint.is_point c.point) then
          invalid_arg
            (Printf.sprintf "%s: unknown durability crash point %S (one of %s)"
               ctx c.point
               (String.concat ", " Repro_durable.Fsio.Crashpoint.points));
        if c.after_hits < 1 then
          invalid_arg
            (Printf.sprintf "%s: dcrash after %d hits (need >= 1)" ctx
               c.after_hits);
        (match c.drestart_after with
        | Some d when d < 0 ->
            invalid_arg (Printf.sprintf "%s: negative restart delay %d" ctx d)
        | _ -> ()))
      t.dcrashes;
    let check_reconfig who events =
      let seen = Hashtbl.create 4 in
      List.iter
        (fun r ->
          check_node (who ^ " node") r.rnode;
          if Hashtbl.mem seen r.rnode then
            invalid_arg
              (Printf.sprintf "%s: duplicate %s entry for node %d" ctx who
                 r.rnode);
          Hashtbl.add seen r.rnode ();
          if r.at_ms < 0 then
            invalid_arg
              (Printf.sprintf "%s: negative %s time %d" ctx who r.at_ms))
        events
    in
    check_reconfig "join" t.joins;
    check_reconfig "leave" t.leaves;
    if t.delay_max < 1 then invalid_arg (ctx ^ ": delay_max must be >= 1")

  (* --- compact string syntax ------------------------------------------------

     Comma-separated clauses, e.g.
       seed=5,drop=0.05,dup=0.01,crash=1@6+300
       drop=0.1,link=0>2:drop=0.5:reorder=0.3,part=100..400:0+2
     Clauses:
       seed=K              fault-decision seed (default 0)
       drop=P dup=P        default per-link drop / duplicate probability
       reorder=P           default per-link reorder probability
       delay=D             max extra delay for reordered/duplicated copies
       link=S>D:f=v:...    per-link override (fields drop/dup/reorder)
       part=T1..T2:A+B+..  nodes A,B,.. isolated from the rest in [T1,T2)
       crash=N@K+R         node N crashes after its K-th send, restarts R
                           ticks later; omit +R for no restart
       dcrash=N:POINT@K+R  node N dies at the K-th hit of the named
                           durability crash point (Fsio.Crashpoint.points,
                           e.g. sync.pre, append.mid, rotate.log.created);
                           suffix the point with ! for power-cut semantics
                           (the log is truncated to its synced floor before
                           the process dies); restart/omission as crash=
       join=N@MS           node N joins the membership ring MS ms into the
                           run (reconfiguration runtime only)
       leave=N@MS          node N leaves the ring MS ms into the run *)

  let parse_float ctx s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> failwith (Printf.sprintf "%s: bad number %S" ctx s)

  let parse_int ctx s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> failwith (Printf.sprintf "%s: bad integer %S" ctx s)

  let parse_link_fields ctx init fields =
    List.fold_left
      (fun l field ->
        match String.index_opt field '=' with
        | None -> failwith (Printf.sprintf "%s: bad link field %S" ctx field)
        | Some i ->
            let k = String.sub field 0 i in
            let v =
              parse_float ctx
                (String.sub field (i + 1) (String.length field - i - 1))
            in
            (match k with
            | "drop" -> { l with drop = v }
            | "dup" -> { l with duplicate = v }
            | "reorder" -> { l with reorder = v }
            | _ -> failwith (Printf.sprintf "%s: unknown link field %S" ctx k)))
      init fields

  let split_on char s = String.split_on_char char s

  (* "T1..T2" -> Some (T1, T2) *)
  let split_window ctx w =
    match String.index_opt w '.' with
    | Some i
      when i + 1 < String.length w && w.[i + 1] = '.' ->
        let t1 = parse_int ctx (String.sub w 0 i) in
        let t2 =
          parse_int ctx (String.sub w (i + 2) (String.length w - i - 2))
        in
        Some (t1, t2)
    | _ -> None

  let parse s =
    let ctx = "Fault.Plan.parse" in
    try
      if String.trim s = "" || String.trim s = "none" then Ok none
      else
        let plan =
          List.fold_left
            (fun plan clause ->
              let clause = String.trim clause in
              match String.index_opt clause '=' with
              | None ->
                  failwith (Printf.sprintf "%s: bad clause %S" ctx clause)
              | Some i ->
                  let key = String.sub clause 0 i in
                  let v =
                    String.sub clause (i + 1) (String.length clause - i - 1)
                  in
                  (match key with
                  | "seed" -> { plan with seed = parse_int ctx v }
                  | "drop" ->
                      { plan with
                        default_link =
                          { plan.default_link with drop = parse_float ctx v } }
                  | "dup" ->
                      { plan with
                        default_link =
                          { plan.default_link with
                            duplicate = parse_float ctx v } }
                  | "reorder" ->
                      { plan with
                        default_link =
                          { plan.default_link with
                            reorder = parse_float ctx v } }
                  | "delay" -> { plan with delay_max = parse_int ctx v }
                  | "link" -> (
                      match split_on ':' v with
                      | endpoints :: fields -> (
                          match split_on '>' endpoints with
                          | [ s; d ] ->
                              let key = (parse_int ctx s, parse_int ctx d) in
                              let l = parse_link_fields ctx clean fields in
                              { plan with links = plan.links @ [ (key, l) ] }
                          | _ ->
                              failwith
                                (Printf.sprintf "%s: bad link endpoints %S" ctx
                                   endpoints))
                      | [] -> failwith (ctx ^ ": empty link clause"))
                  | "part" -> (
                      match split_on ':' v with
                      | [ window; group ] -> (
                          match split_window ctx window with
                          | Some (t1, t2) ->
                              let group =
                                List.map (parse_int ctx) (split_on '+' group)
                              in
                              { plan with
                                partitions =
                                  plan.partitions
                                  @ [ { from_t = t1; until_t = t2; group } ] }
                          | None ->
                              failwith
                                (Printf.sprintf "%s: bad partition window %S"
                                   ctx window))
                      | _ -> failwith (ctx ^ ": bad partition clause"))
                  | "crash" -> (
                      match split_on '@' v with
                      | [ node; rest ] ->
                          let node = parse_int ctx node in
                          let after, restart =
                            match split_on '+' rest with
                            | [ k ] -> (parse_int ctx k, None)
                            | [ k; r ] ->
                                (parse_int ctx k, Some (parse_int ctx r))
                            | _ ->
                                failwith
                                  (Printf.sprintf "%s: bad crash clause %S" ctx
                                     v)
                          in
                          { plan with
                            crashes =
                              plan.crashes
                              @ [ { node; after_sends = after;
                                    restart_after = restart } ] }
                      | _ ->
                          failwith
                            (Printf.sprintf "%s: bad crash clause %S" ctx v))
                  | "dcrash" -> (
                      match split_on ':' v with
                      | [ node; rest ] -> (
                          let node = parse_int ctx node in
                          match split_on '@' rest with
                          | [ point; tail ] ->
                              let point, powercut =
                                let k = String.length point in
                                if k > 0 && point.[k - 1] = '!' then
                                  (String.sub point 0 (k - 1), true)
                                else (point, false)
                              in
                              let after, restart =
                                match split_on '+' tail with
                                | [ k ] -> (parse_int ctx k, None)
                                | [ k; r ] ->
                                    (parse_int ctx k, Some (parse_int ctx r))
                                | _ ->
                                    failwith
                                      (Printf.sprintf "%s: bad dcrash clause %S"
                                         ctx v)
                              in
                              { plan with
                                dcrashes =
                                  plan.dcrashes
                                  @ [ { dnode = node; point; powercut;
                                        after_hits = after;
                                        drestart_after = restart } ] }
                          | _ ->
                              failwith
                                (Printf.sprintf "%s: bad dcrash clause %S" ctx
                                   v))
                      | _ ->
                          failwith
                            (Printf.sprintf "%s: bad dcrash clause %S" ctx v))
                  | "join" | "leave" -> (
                      match split_on '@' v with
                      | [ node; at ] ->
                          let r =
                            { rnode = parse_int ctx node;
                              at_ms = parse_int ctx at }
                          in
                          if key = "join" then
                            { plan with joins = plan.joins @ [ r ] }
                          else { plan with leaves = plan.leaves @ [ r ] }
                      | _ ->
                          failwith
                            (Printf.sprintf "%s: bad %s clause %S" ctx key v))
                  | _ ->
                      failwith (Printf.sprintf "%s: unknown clause %S" ctx key)))
            none (split_on ',' s)
        in
        validate plan;
        Ok plan
    with
    | Failure msg -> Error msg
    | Invalid_argument msg -> Error msg

  let link_to_fields l =
    let f name v acc =
      if v = 0.0 then acc else Printf.sprintf "%s=%g" name v :: acc
    in
    f "drop" l.drop (f "dup" l.duplicate (f "reorder" l.reorder []))

  let to_string t =
    let buf = ref [] in
    let add s = buf := s :: !buf in
    if t.seed <> 0 then add (Printf.sprintf "seed=%d" t.seed);
    List.iter add (List.rev (link_to_fields t.default_link));
    if t.delay_max <> none.delay_max then
      add (Printf.sprintf "delay=%d" t.delay_max);
    List.iter
      (fun ((s, d), l) ->
        add
          (Printf.sprintf "link=%d>%d%s" s d
             (String.concat ""
                (List.map (fun f -> ":" ^ f) (List.rev (link_to_fields l))))))
      t.links;
    List.iter
      (fun p ->
        add
          (Printf.sprintf "part=%d..%d:%s" p.from_t p.until_t
             (String.concat "+" (List.map string_of_int p.group))))
      t.partitions;
    List.iter
      (fun c ->
        add
          (match c.restart_after with
          | Some r -> Printf.sprintf "crash=%d@%d+%d" c.node c.after_sends r
          | None -> Printf.sprintf "crash=%d@%d" c.node c.after_sends))
      t.crashes;
    List.iter
      (fun c ->
        let point = if c.powercut then c.point ^ "!" else c.point in
        add
          (match c.drestart_after with
          | Some r ->
              Printf.sprintf "dcrash=%d:%s@%d+%d" c.dnode point c.after_hits r
          | None -> Printf.sprintf "dcrash=%d:%s@%d" c.dnode point c.after_hits))
      t.dcrashes;
    List.iter
      (fun r -> add (Printf.sprintf "join=%d@%d" r.rnode r.at_ms))
      t.joins;
    List.iter
      (fun r -> add (Printf.sprintf "leave=%d@%d" r.rnode r.at_ms))
      t.leaves;
    match List.rev !buf with [] -> "none" | parts -> String.concat "," parts
end
