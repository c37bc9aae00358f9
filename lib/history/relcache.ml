module Graph = Repro_util.Graph

type t = {
  h : History.t;
  ops : Op.t array Lazy.t; (* one shared copy of [History.ops h] *)
  index : Unit_view.index Lazy.t;
  rf : (int option array, History.rf_error) result Lazy.t;
  program_order : Orders.relation Lazy.t;
  read_from_relation : Orders.relation Lazy.t;
  causal : Orders.relation Lazy.t;
  semi_causal : Orders.relation Lazy.t;
  lazy_causal : Orders.relation Lazy.t;
  lazy_semi_causal : Orders.relation Lazy.t;
  pram : Orders.relation Lazy.t; (* also slow memory's relation *)
  proc_ids : int list array Lazy.t;
  var_ids : (int, int list) Hashtbl.t Lazy.t;
}

let rf_exn_of = function
  | Ok rf -> rf
  | Error e ->
      invalid_arg (Format.asprintf "Relcache: read-from undetermined (%a)" History.pp_rf_error e)

let create h =
  let ops = lazy (History.ops h) in
  (* one writer table feeds both read-from and the index *)
  let writers = lazy (History.writers h) in
  let rf = lazy (History.read_from ~writers:(Lazy.force writers) h) in
  let rf_exn = lazy (rf_exn_of (Lazy.force rf)) in
  let program_order = lazy (Orders.program_order h) in
  let read_from_relation = lazy (Orders.read_from_relation h (Lazy.force rf_exn)) in
  {
    h;
    ops;
    index = lazy (Unit_view.index (Lazy.force ops) ~writers:(Lazy.force writers));
    rf;
    program_order;
    read_from_relation;
    causal = lazy (Orders.causal h (Lazy.force rf_exn));
    semi_causal = lazy (Orders.semi_causal h (Lazy.force rf_exn));
    lazy_causal = lazy (Orders.lazy_causal h (Lazy.force rf_exn));
    lazy_semi_causal = lazy (Orders.lazy_semi_causal h (Lazy.force rf_exn));
    (* [Orders.pram]'s graph, from the closure and read-from built here *)
    pram = lazy (Graph.union (Lazy.force program_order) (Lazy.force read_from_relation));
    proc_ids =
      lazy
        (let ops = Lazy.force ops in
         Array.init (History.n_procs h) (fun p ->
             let ids = ref [] in
             for gid = Array.length ops - 1 downto 0 do
               let o = ops.(gid) in
               if o.Op.proc = p || Op.is_write o then ids := gid :: !ids
             done;
             !ids));
    var_ids =
      lazy
        (let tbl = Hashtbl.create 16 in
         let ops = Lazy.force ops in
         for gid = Array.length ops - 1 downto 0 do
           let x = ops.(gid).Op.var in
           let tail =
             match Hashtbl.find_opt tbl x with Some l -> l | None -> []
           in
           Hashtbl.replace tbl x (gid :: tail)
         done;
         tbl);
  }

let history t = t.h
let index t = Lazy.force t.index
let read_from t = Lazy.force t.rf
let rf_exn t = rf_exn_of (Lazy.force t.rf)
let program_order t = Lazy.force t.program_order
let read_from_relation t = Lazy.force t.read_from_relation
let causal t = Lazy.force t.causal
let semi_causal t = Lazy.force t.semi_causal
let lazy_causal t = Lazy.force t.lazy_causal
let lazy_semi_causal t = Lazy.force t.lazy_semi_causal
let pram t = Lazy.force t.pram
let slow = pram

let all_ids t = List.init (History.n_ops t.h) Fun.id

let proc_ids t p = (Lazy.force t.proc_ids).(p)

let var_ids t x =
  match Hashtbl.find_opt (Lazy.force t.var_ids) x with
  | Some ids -> ids
  | None -> []

let proc_var_ids t p x =
  let ops = Lazy.force t.ops in
  List.filter
    (fun gid ->
      let o = ops.(gid) in
      Op.is_write o || o.Op.proc = p)
    (var_ids t x)
