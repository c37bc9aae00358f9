let fsync_fd fd = Unix.fsync fd

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd
       with Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.EROFS), _, _) ->
         ());
      Unix.close fd

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let scratch_dir ?keep prefix =
  match keep with
  | Some dir ->
      (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      (dir, ignore)
  | None ->
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
      in
      remove_tree dir;
      Unix.mkdir dir 0o700;
      (dir, fun () -> remove_tree dir)

module Crashpoint = struct
  let points =
    [
      "append.pre"; "append.mid"; "append.post"; "sync.pre"; "sync.post";
      "ck.synced"; "ck.renamed"; "rotate.log.created"; "rotate.done";
    ]

  let is_point p = List.mem p points

  type armed = {
    point : string;
    mutable remaining : int;
    powercut : bool;
    action : unit -> unit;
  }

  let armed : armed list ref = ref []

  let powercut_hook : (unit -> unit) ref = ref (fun () -> ())

  let set_powercut_hook f = powercut_hook := f

  let arm ~point ?(after = 1) ?(powercut = false) action =
    if not (is_point point) then
      invalid_arg (Printf.sprintf "Crashpoint.arm: unknown point %S" point);
    if after < 1 then
      invalid_arg (Printf.sprintf "Crashpoint.arm: after=%d (need >= 1)" after);
    armed := { point; remaining = after; powercut; action } :: !armed

  let disarm () = armed := []

  let fire point =
    match List.find_opt (fun a -> a.point = point) !armed with
    | None -> None
    | Some a ->
        a.remaining <- a.remaining - 1;
        if a.remaining > 0 then None
        else begin
          armed := List.filter (fun x -> x != a) !armed;
          Some
            (fun () ->
              if a.powercut then !powercut_hook ();
              a.action ())
        end

  let hit point = match fire point with Some kill -> kill () | None -> ()
end

module Blob = struct
  (* magic(4) version(u16) meta1(u64) meta2(u64) len(u32) crc(u32) *)
  let header_bytes = 4 + 2 + 8 + 8 + 4 + 4

  let write ~path ~magic ~version ~meta:(m1, m2) payload =
    if String.length magic <> 4 then
      invalid_arg "Blob.write: magic must be 4 bytes";
    let len = String.length payload in
    let hdr = Bytes.create header_bytes in
    Bytes.blit_string magic 0 hdr 0 4;
    Bytes.set_uint16_le hdr 4 version;
    Bytes.set_int64_le hdr 6 (Int64.of_int m1);
    Bytes.set_int64_le hdr 14 (Int64.of_int m2);
    Bytes.set_int32_le hdr 22 (Int32.of_int len);
    (* the CRC covers the header fields too: a flipped meta slot or
       length must be as detectable as a flipped payload byte *)
    let crc =
      Crc32.update
        (Crc32.update Crc32.init hdr ~pos:0 ~len:26)
        (Bytes.unsafe_of_string payload)
        ~pos:0 ~len
    in
    Bytes.set_int32_le hdr 26 (Int32.of_int crc);
    let tmp = path ^ ".tmp" in
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
    in
    let write_all b =
      let n = Bytes.length b in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write fd b !off (n - !off)
      done
    in
    write_all hdr;
    write_all (Bytes.unsafe_of_string payload);
    fsync_fd fd;
    Unix.close fd;
    Crashpoint.hit "ck.synced";
    Sys.rename tmp path;
    Crashpoint.hit "ck.renamed";
    fsync_dir (Filename.dirname path)

  let read ~path ~magic ~version =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let size = in_channel_length ic in
          if size < header_bytes then Error "truncated header"
          else begin
            let hdr = Bytes.create header_bytes in
            really_input ic hdr 0 header_bytes;
            if Bytes.sub_string hdr 0 4 <> magic then
              Error
                (Printf.sprintf "bad magic %S (want %S)"
                   (Bytes.sub_string hdr 0 4) magic)
            else if Bytes.get_uint16_le hdr 4 <> version then
              Error
                (Printf.sprintf "format version %d (want %d)"
                   (Bytes.get_uint16_le hdr 4) version)
            else begin
              let m1 = Int64.to_int (Bytes.get_int64_le hdr 6) in
              let m2 = Int64.to_int (Bytes.get_int64_le hdr 14) in
              let len = Int32.to_int (Bytes.get_int32_le hdr 22) in
              let crc =
                Int32.to_int (Bytes.get_int32_le hdr 26) land 0xFFFFFFFF
              in
              if len < 0 || size - header_bytes <> len then
                Error
                  (Printf.sprintf "payload length %d does not match file size"
                     len)
              else begin
                let payload = really_input_string ic len in
                let crc' =
                  Crc32.update
                    (Crc32.update Crc32.init hdr ~pos:0 ~len:26)
                    (Bytes.unsafe_of_string payload)
                    ~pos:0 ~len
                in
                if crc' <> crc then Error "payload CRC mismatch"
                else Ok ((m1, m2), payload)
              end
            end
          end)
    with
    | r -> r
    | exception Sys_error msg -> Error msg
    | exception End_of_file -> Error "truncated payload"
end
