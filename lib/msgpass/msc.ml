let lane_width = 5

let arrow_row ~n_nodes ~src ~dst =
  (* draw node lanes '|' with an arrow from src's lane to dst's lane *)
  let width = n_nodes * lane_width in
  let canvas = Bytes.make width ' ' in
  for node = 0 to n_nodes - 1 do
    Bytes.set canvas (node * lane_width) '|'
  done;
  let col node = node * lane_width in
  let a = col src and b = col dst in
  let lo = Stdlib.min a b and hi = Stdlib.max a b in
  for c = lo + 1 to hi - 1 do
    Bytes.set canvas c '.'
  done;
  if src <> dst then
    Bytes.set canvas (if b > a then hi - 1 else lo + 1) (if b > a then '>' else '<');
  Bytes.to_string canvas

let render ?(show_sends = false) ~n_nodes ~label events =
  let buffer = Buffer.create 512 in
  (* header: lane names *)
  Buffer.add_string buffer "        ";
  for node = 0 to n_nodes - 1 do
    Buffer.add_string buffer (Printf.sprintf "p%-*d" (lane_width - 1) node)
  done;
  Buffer.add_char buffer '\n';
  let row time src dst verb text =
    Buffer.add_string buffer
      (Printf.sprintf "t=%-5d %s  %s %s\n" time (arrow_row ~n_nodes ~src ~dst) verb text)
  in
  List.iter
    (fun event ->
      match event with
      | Net.Delivered e ->
          row e.Net.deliver_time e.Net.src e.Net.dst "deliver" (label e.Net.msg)
      | Net.Sent e ->
          if show_sends then row e.Net.send_time e.Net.src e.Net.dst "send" (label e.Net.msg))
    events;
  Buffer.contents buffer

let summarize ~n_nodes events =
  let counts = Array.make_matrix n_nodes n_nodes 0 in
  List.iter
    (fun event ->
      match event with
      | Net.Delivered e -> counts.(e.Net.src).(e.Net.dst) <- counts.(e.Net.src).(e.Net.dst) + 1
      | Net.Sent _ -> ())
    events;
  let acc = ref [] in
  for src = n_nodes - 1 downto 0 do
    for dst = n_nodes - 1 downto 0 do
      if counts.(src).(dst) > 0 then acc := (src, dst, counts.(src).(dst)) :: !acc
    done
  done;
  !acc
