type t = {
  procs : Op.t array array;
  offsets : int array; (* offsets.(p) = global id of (p, 0) *)
  total : int;
}

let of_lists specs =
  let build proc spec =
    List.mapi
      (fun index (kind, var, value) ->
        if var < 0 then invalid_arg "History.of_lists: negative variable";
        { Op.proc; index; kind; var; value })
      spec
    |> Array.of_list
  in
  let procs = Array.of_list (List.mapi build specs) in
  let n = Array.length procs in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  for p = 0 to n - 1 do
    offsets.(p) <- !total;
    total := !total + Array.length procs.(p)
  done;
  { procs; offsets; total = !total }

let n_procs t = Array.length t.procs

let n_ops t = t.total

let local t i = Array.copy t.procs.(i)

let vars t =
  let module IS = Set.Make (Int) in
  let set = ref IS.empty in
  Array.iter (Array.iter (fun (o : Op.t) -> set := IS.add o.var !set)) t.procs;
  IS.elements !set

let op t gid =
  if gid < 0 || gid >= t.total then invalid_arg "History.op: bad global id";
  (* offsets is ascending; linear scan is fine for the process counts used *)
  let rec find p =
    if p + 1 < Array.length t.offsets && t.offsets.(p + 1) <= gid then find (p + 1)
    else t.procs.(p).(gid - t.offsets.(p))
  in
  find 0

let ops t = Array.concat (Array.to_list t.procs)

let id_of_addr t ~proc ~index =
  if proc < 0 || proc >= Array.length t.procs then
    invalid_arg "History.id_of_addr: bad process";
  if index < 0 || index >= Array.length t.procs.(proc) then
    invalid_arg "History.id_of_addr: bad index";
  t.offsets.(proc) + index

let id t (o : Op.t) = id_of_addr t ~proc:o.proc ~index:o.index

let writes t =
  ops t |> Array.to_list |> List.filter Op.is_write

let sub_history t i =
  ops t |> Array.to_list
  |> List.filter (fun (o : Op.t) -> o.proc = i || Op.is_write o)

(* (variable, value) keys of writes: a typed table, so building it hashes
   and compares ints, not polymorphic tuples.  [of_lists] lets a write of
   [Init] through, so [Init] is a key too. *)
module Written = Hashtbl.Make (struct
  type t = int * Op.value

  let equal ((x, a) : t) (y, b) = x = y && Op.equal_value a b

  let hash ((x, a) : t) =
    let v = match a with Op.Init -> -1 | Op.Val v -> v in
    ((x * 0x9e3779b1) lxor v) land max_int
end)

let writers t =
  let table = Written.create 64 in
  for p = 0 to Array.length t.procs - 1 do
    Array.iteri
      (fun i (o : Op.t) ->
        if Op.is_write o then begin
          let key = (o.var, o.value) in
          let prev = Option.value ~default:[] (Written.find_opt table key) in
          Written.replace table key ((t.offsets.(p) + i) :: prev)
        end)
      t.procs.(p)
  done;
  let result = Array.make t.total [] in
  for p = 0 to Array.length t.procs - 1 do
    Array.iteri
      (fun i (o : Op.t) ->
        match (o.kind, o.value) with
        | Op.Read, Op.Init -> ()
        | _ -> (
            match Written.find_opt table (o.var, o.value) with
            | Some ws -> result.(t.offsets.(p) + i) <- ws
            | None -> ()))
      t.procs.(p)
  done;
  result

let is_differentiated t =
  Array.for_all (fun ws -> List.compare_length_with ws 1 <= 0) (writers t)

type rf_error = Dangling_read of Op.t | Ambiguous_read of Op.t

let pp_rf_error ppf = function
  | Dangling_read o ->
      Format.fprintf ppf "read %a returns a value never written" Op.pp o
  | Ambiguous_read o ->
      Format.fprintf ppf "read %a has several candidate writers (non-differentiated)"
        Op.pp o

let read_from ?writers:table t =
  let table = match table with Some table -> table | None -> writers t in
  let result = Array.make t.total None in
  (* the first read, in global-id order, whose source is not one write *)
  let rec scan p i =
    if p = Array.length t.procs then Ok result
    else if i = Array.length t.procs.(p) then scan (p + 1) 0
    else
      let o = t.procs.(p).(i) and gid = t.offsets.(p) + i in
      match (o.kind, o.value) with
      | Op.Read, Op.Val _ -> (
          match table.(gid) with
          | [ w ] ->
              result.(gid) <- Some w;
              scan p (i + 1)
          | [] -> Error (Dangling_read o)
          | _ :: _ :: _ -> Error (Ambiguous_read o))
      | _ -> scan p (i + 1)
  in
  scan 0 0

let pp ppf t =
  Array.iteri
    (fun p line ->
      Format.fprintf ppf "p%d: %a@." p
        (Format.pp_print_seq
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ")
           Op.pp)
        (Array.to_seq line))
    t.procs

let to_string t = Format.asprintf "%a" pp t

(* --- parsing -------------------------------------------------------------- *)

exception Parse_error of string

let parse_op ~proc ~line_no token =
  let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s in %S" line_no msg token)) in
  let kind, rest =
    match token.[0] with
    | 'w' -> (Op.Write, String.sub token 1 (String.length token - 1))
    | 'r' -> (Op.Read, String.sub token 1 (String.length token - 1))
    | _ -> fail "operation must start with 'r' or 'w'"
    | exception Invalid_argument _ -> fail "empty operation"
  in
  (* optional process annotation before the parenthesis *)
  let open_paren =
    match String.index_opt rest '(' with
    | Some i -> i
    | None -> fail "missing '('"
  in
  if open_paren > 0 then begin
    let annotated = String.sub rest 0 open_paren in
    match int_of_string_opt annotated with
    | Some p when p = proc -> ()
    | Some p ->
        fail (Printf.sprintf "operation annotated p%d on process %d's line" p proc)
    | None -> fail "bad process annotation"
  end;
  let close_paren =
    match String.index_opt rest ')' with
    | Some i when i > open_paren -> i
    | _ -> fail "missing ')'"
  in
  let var_text = String.sub rest (open_paren + 1) (close_paren - open_paren - 1) in
  let var =
    let digits =
      if String.length var_text > 0 && var_text.[0] = 'x' then
        String.sub var_text 1 (String.length var_text - 1)
      else var_text
    in
    match int_of_string_opt digits with
    | Some v when v >= 0 -> v
    | _ -> fail "bad variable"
  in
  let value_text = String.sub rest (close_paren + 1) (String.length rest - close_paren - 1) in
  let value =
    match String.lowercase_ascii value_text with
    | "\xe2\x8a\xa5" | "_" | "init" -> Op.Init
    | _ -> (
        match int_of_string_opt value_text with
        | Some v -> Op.Val v
        | None -> fail "bad value")
  in
  if kind = Op.Write && value = Op.Init then fail "cannot write the initial value";
  (kind, var, value)

let parse text =
  let lines = String.split_on_char '\n' text in
  try
    let by_proc = Hashtbl.create 8 in
    let max_proc = ref (-1) in
    List.iteri
      (fun line_idx raw ->
        let line_no = line_idx + 1 in
        let line = String.trim raw in
        if line <> "" && line.[0] <> '#' then begin
          match String.index_opt line ':' with
          | None -> raise (Parse_error (Printf.sprintf "line %d: missing ':'" line_no))
          | Some colon ->
              let head = String.trim (String.sub line 0 colon) in
              let proc =
                if String.length head >= 2 && head.[0] = 'p' then
                  match int_of_string_opt (String.sub head 1 (String.length head - 1)) with
                  | Some p when p >= 0 -> p
                  | _ ->
                      raise
                        (Parse_error (Printf.sprintf "line %d: bad process %S" line_no head))
                else
                  raise
                    (Parse_error (Printf.sprintf "line %d: bad process %S" line_no head))
              in
              if Hashtbl.mem by_proc proc then
                raise
                  (Parse_error (Printf.sprintf "line %d: duplicate process p%d" line_no proc));
              let body = String.sub line (colon + 1) (String.length line - colon - 1) in
              let tokens =
                String.split_on_char ' ' body
                |> List.concat_map (String.split_on_char '\t')
                |> List.map String.trim
                |> List.filter (fun s -> s <> "")
              in
              Hashtbl.replace by_proc proc
                (List.map (parse_op ~proc ~line_no) tokens);
              if proc > !max_proc then max_proc := proc
        end)
      lines;
    let specs =
      List.init (!max_proc + 1) (fun p ->
          match Hashtbl.find_opt by_proc p with Some ops -> ops | None -> [])
    in
    Ok (of_lists specs)
  with Parse_error msg -> Error msg
