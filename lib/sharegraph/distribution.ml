module History = Repro_history.History
module Op = Repro_history.Op

module Bitset = Repro_util.Bitset
module Rng = Repro_util.Rng

type t = {
  n_procs : int;
  n_vars : int;
  table : Bitset.t array; (* per proc *)
  holders : int list array; (* per variable, ascending; built once *)
}

let make ~n_procs ~n_vars x =
  if Array.length x <> n_procs then
    invalid_arg "Distribution.make: array length <> n_procs";
  let table =
    Array.map
      (fun vars ->
        let set = Bitset.create n_vars in
        List.iter
          (fun v ->
            if v < 0 || v >= n_vars then
              invalid_arg "Distribution.make: variable out of range";
            Bitset.add set v)
          vars;
        set)
      x
  in
  let holders = Array.make n_vars [] in
  for p = n_procs - 1 downto 0 do
    Bitset.iter (fun v -> holders.(v) <- p :: holders.(v)) table.(p)
  done;
  { n_procs; n_vars; table; holders }

let of_lists ~n_vars lists =
  make ~n_procs:(List.length lists) ~n_vars (Array.of_list lists)

let n_procs t = t.n_procs

let n_vars t = t.n_vars

let holds t ~proc ~var = Bitset.mem t.table.(proc) var

let vars_of t i = Bitset.elements t.table.(i)

let holders t x = t.holders.(x)

let holders_set t x =
  let set = Bitset.create t.n_procs in
  List.iter (Bitset.add set) (holders t x);
  set

let is_full_replication t =
  Array.for_all (fun set -> Bitset.cardinal set = t.n_vars) t.table

let restrict_history t h =
  if History.n_procs h > t.n_procs then Error "history has more processes than the distribution"
  else begin
    let violation = ref None in
    Array.iter
      (fun (o : Op.t) ->
        if !violation = None && not (holds t ~proc:o.proc ~var:o.var) then
          violation :=
            Some
              (Printf.sprintf "process %d does not hold variable x%d accessed by %s"
                 o.proc o.var (Op.to_string o)))
      (History.ops h);
    match !violation with None -> Ok () | Some msg -> Error msg
  end

let pp ppf t =
  for i = 0 to t.n_procs - 1 do
    Format.fprintf ppf "X%d = {%a}@." i
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf v -> Format.fprintf ppf "x%d" v))
      (vars_of t i)
  done

let full ~n_procs ~n_vars =
  make ~n_procs ~n_vars (Array.make n_procs (List.init n_vars Fun.id))

let random rng ~n_procs ~n_vars ~replicas_per_var =
  let k = Stdlib.max 1 (Stdlib.min replicas_per_var n_procs) in
  let x = Array.make n_procs [] in
  for v = n_vars - 1 downto 0 do
    let owners = Rng.sample_without_replacement rng k n_procs in
    List.iter (fun p -> x.(p) <- v :: x.(p)) owners
  done;
  make ~n_procs ~n_vars x

let ring ~n_procs =
  if n_procs < 3 then invalid_arg "Distribution.ring: need at least 3 processes";
  let x = Array.make n_procs [] in
  for v = 0 to n_procs - 1 do
    x.(v) <- v :: x.(v);
    x.((v + 1) mod n_procs) <- v :: x.((v + 1) mod n_procs)
  done;
  make ~n_procs ~n_vars:n_procs x

let clustered ~n_procs ~n_vars ~clusters =
  if clusters < 1 || clusters > n_procs then
    invalid_arg "Distribution.clustered: bad cluster count";
  let x = Array.make n_procs [] in
  for v = 0 to n_vars - 1 do
    let c = v mod clusters in
    (* processes of cluster c: those i with i mod clusters = c *)
    for i = 0 to n_procs - 1 do
      if i mod clusters = c then x.(i) <- v :: x.(i)
    done
  done;
  let x = Array.map List.rev x in
  make ~n_procs ~n_vars x

let chain ~n_procs =
  if n_procs < 2 then invalid_arg "Distribution.chain: need at least 2 processes";
  let n_vars = n_procs - 1 in
  let x = Array.make n_procs [] in
  for v = 0 to n_vars - 1 do
    x.(v) <- v :: x.(v);
    x.(v + 1) <- v :: x.(v + 1)
  done;
  let x = Array.map List.rev x in
  make ~n_procs ~n_vars x

let star ~n_procs =
  if n_procs < 2 then invalid_arg "Distribution.star: need at least 2 processes";
  let n_vars = n_procs - 1 in
  let x = Array.make n_procs [] in
  for v = 0 to n_vars - 1 do
    x.(0) <- v :: x.(0);
    x.(v + 1) <- [ v ]
  done;
  x.(0) <- List.rev x.(0);
  make ~n_procs ~n_vars x

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Distribution.grid: bad dimensions";
  let proc i j = (i * cols) + j in
  let n_procs = rows * cols in
  let n_horizontal = rows * (cols - 1) in
  let h_var i j = (i * (cols - 1)) + j (* edge (i,j)-(i,j+1) *) in
  let v_var i j = n_horizontal + (i * cols) + j (* edge (i,j)-(i+1,j) *) in
  let n_vars = n_horizontal + ((rows - 1) * cols) in
  let x = Array.make n_procs [] in
  let share v p = x.(p) <- v :: x.(p) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 2 do
      share (h_var i j) (proc i j);
      share (h_var i j) (proc i (j + 1))
    done
  done;
  for i = 0 to rows - 2 do
    for j = 0 to cols - 1 do
      share (v_var i j) (proc i j);
      share (v_var i j) (proc (i + 1) j)
    done
  done;
  let x = Array.map (fun vars -> List.sort_uniq compare vars) x in
  make ~n_procs ~n_vars x
