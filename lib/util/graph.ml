type t = {
  n : int;
  adj : int list array; (* reversed insertion order *)
  matrix : Bitset.t array; (* matrix.(u) = successor set of u *)
  mutable closed : bool; (* the edges are known to be transitively closed *)
}

let create n =
  {
    n;
    adj = Array.make n [];
    matrix = Array.init n (fun _ -> Bitset.create n);
    closed = true;
  }

let n_vertices t = t.n

let mem_edge t u v = Bitset.mem t.matrix.(u) v

let add_edge t u v =
  if not (mem_edge t u v) then begin
    Bitset.add t.matrix.(u) v;
    t.adj.(u) <- v :: t.adj.(u);
    t.closed <- false
  end

let is_closed t = t.closed

let succ t u = List.rev t.adj.(u)

let iter_succ t u f = List.iter f t.adj.(u)

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) t.adj.(u)
  done;
  List.sort compare !acc

let n_edges t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.adj

let copy t =
  {
    n = t.n;
    adj = Array.copy t.adj;
    matrix = Array.map Bitset.copy t.matrix;
    closed = t.closed;
  }

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: size mismatch";
  let r = copy a in
  for u = 0 to b.n - 1 do
    List.iter (fun v -> add_edge r u v) (succ b u)
  done;
  r

let reachable_from t src =
  let seen = Bitset.create t.n in
  let rec visit u =
    List.iter
      (fun v ->
        if not (Bitset.mem seen v) then begin
          Bitset.add seen v;
          visit v
        end)
      t.adj.(u)
  in
  visit src;
  seen

(* Kahn's algorithm over the adjacency lists: [Some order] with every edge
   going forward, [None] on a cycle.  The queue is the order array itself. *)
let kahn_order t =
  let indegree = Array.make t.n 0 in
  Array.iter (List.iter (fun v -> indegree.(v) <- indegree.(v) + 1)) t.adj;
  let order = Array.make t.n 0 and placed = ref 0 in
  let push v =
    order.(!placed) <- v;
    incr placed
  in
  for u = 0 to t.n - 1 do
    if indegree.(u) = 0 then push u
  done;
  let head = ref 0 in
  while !head < !placed do
    List.iter
      (fun v ->
        indegree.(v) <- indegree.(v) - 1;
        if indegree.(v) = 0 then push v)
      t.adj.(order.(!head));
    incr head
  done;
  if !placed = t.n then Some order else None

let transitive_closure t =
  let r = create t.n in
  (match kahn_order t with
  | Some order ->
      (* rows closed in reverse topological order, so every successor's
         row is final when it is read; a successor already reached through
         another one adds nothing.  O(n + m * n / wordsize). *)
      for i = t.n - 1 downto 0 do
        let u = order.(i) in
        let row = r.matrix.(u) in
        List.iter
          (fun v ->
            if not (Bitset.mem row v) then begin
              Bitset.add row v;
              Bitset.union_into ~dst:row r.matrix.(v)
            end)
          t.adj.(u)
      done
  | None ->
      (* Warshall over the bitset rows: row(u) |= row(via) whenever
         via ∈ row(u).  Exact on cycles (u ∈ row(u) iff u lies on one),
         which only refuted histories produce.  O(n³ / wordsize). *)
      for u = 0 to t.n - 1 do
        Bitset.union_into ~dst:r.matrix.(u) t.matrix.(u)
      done;
      for via = 0 to t.n - 1 do
        let row_via = r.matrix.(via) in
        for u = 0 to t.n - 1 do
          if u <> via && Bitset.mem r.matrix.(u) via then
            Bitset.union_into ~dst:r.matrix.(u) row_via
        done
      done);
  for u = 0 to t.n - 1 do
    (* adj holds reversed order so that [succ] yields ascending vertices *)
    r.adj.(u) <- Bitset.fold (fun v acc -> v :: acc) r.matrix.(u) []
  done;
  r

let has_path t u v = Bitset.mem (reachable_from t u) v

let is_acyclic t = kahn_order t <> None

let topological_sort t =
  let indegree = Array.make t.n 0 in
  for u = 0 to t.n - 1 do
    List.iter (fun v -> indegree.(v) <- indegree.(v) + 1) t.adj.(u)
  done;
  let ready = Pqueue.create ~cmp:compare () in
  for u = 0 to t.n - 1 do
    if indegree.(u) = 0 then Pqueue.push ready u ()
  done;
  let rec drain acc placed =
    match Pqueue.pop ready with
    | None -> if placed = t.n then Some (List.rev acc) else None
    | Some (u, ()) ->
        List.iter
          (fun v ->
            indegree.(v) <- indegree.(v) - 1;
            if indegree.(v) = 0 then Pqueue.push ready v ())
          t.adj.(u);
        drain (u :: acc) (placed + 1)
  in
  drain [] 0

let transitive_reduction_edges t =
  if not (is_acyclic t) then invalid_arg "Graph.transitive_reduction_edges: cyclic";
  let closure = transitive_closure t in
  edges t
  |> List.filter (fun (u, v) ->
         (* (u,v) is redundant iff some other successor w of u reaches v. *)
         not
           (List.exists
              (fun w -> w <> v && Bitset.mem closure.matrix.(w) v)
              (succ t u)))

let simple_paths ?(max_paths = 10_000) t ~src ~dst =
  let found = ref [] in
  let n_found = ref 0 in
  let on_path = Bitset.create t.n in
  let rec explore u prefix =
    if !n_found < max_paths then begin
      if u = dst && prefix <> [] then begin
        found := List.rev (dst :: prefix) :: !found;
        incr n_found
      end
      else begin
        Bitset.add on_path u;
        List.iter
          (fun v ->
            if v = dst || not (Bitset.mem on_path v) then explore v (u :: prefix))
          (succ t u);
        Bitset.remove on_path u
      end
    end
  in
  explore src [];
  List.rev !found

let add_undirected_edge t u v =
  add_edge t u v;
  add_edge t v u

let components t =
  let uf = Union_find.create t.n in
  for u = 0 to t.n - 1 do
    List.iter (fun v -> Union_find.union uf u v) t.adj.(u)
  done;
  Union_find.classes uf
