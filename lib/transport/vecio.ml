(* OCaml face of the writev stub: one scatter-gather syscall over a span
   of (bytes, off, len) chunks, with the partial-write cursor expressed
   as (first chunk index, bytes of it already written). *)

external writev_raw :
  Unix.file_descr -> (Bytes.t * int * int) array -> int -> int -> int -> int
  = "repro_writev"

let max_iov = 64

(* the stub's negative error codes; anything unexpected surfaces as EIO *)
let error_of_code = function
  | -1 -> Unix.EINTR
  | -2 -> Unix.EAGAIN
  | -3 -> Unix.EPIPE
  | -4 -> Unix.ECONNRESET
  | -5 -> Unix.EBADF
  | _ -> Unix.EIO

let writev fd chunks ~start ~skip ~count =
  if count <= 0 then 0
  else
    let n = writev_raw fd chunks start skip (Int.min count max_iov) in
    if n >= 0 then n
    else raise (Unix.Unix_error (error_of_code n, "writev", ""))
