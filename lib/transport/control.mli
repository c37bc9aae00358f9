(** The control plane: every frame that is neither protocol data nor
    client RPC.  Each is one {!msg} in the body of a {!Wire.Control}
    frame, encoded with {!codec}.

    Two conversations share it.  Peers greet each other with [Hello]
    and announce the end of their program with [Done] (both from a node
    id).  The supervisor ({!supervisor} as [src]) talks to each node
    over a control connection it dials: [Gone] tells a node that a peer
    ended for good, and the membership runtime's epoch protocol is
    [Propose], [Commit], [Finish] and the [Ping]/[Pong] heartbeat.

    The encoding is strict big-endian, a tag byte first:

    {v
      0 hello    len:i32 fingerprint:len bytes  incarnation:i32
      1 done
      2 gone     node:u16
      3 propose  epoch:u16  count:u16 members:count×u16
                            count:u16 down:count×u16
      4 commit   epoch:u16  count:u16 members:count×u16
      5 finish
      6 ping
      7 pong     epoch:u16  proposed:u16  ready:u8  writes:i32
    v}

    The decoder accepts exactly the images of the encoder: an unknown
    tag, a truncated body, trailing bytes, an id count larger than the
    bytes that follow and a [ready] byte other than 0 or 1 all raise
    {!Codec.Bad} with a message that names [control]. *)

type msg =
  | Hello of { fingerprint : string; incarnation : int }
      (** A peer's greeting: the run's fingerprint, which must match, and
          its restart count. *)
  | Done  (** The sender's program has finished issuing operations. *)
  | Gone of { node : int }
      (** From the supervisor: [node] ended for good and will send no
          more. *)
  | Propose of { epoch : int; members : int list; down : int list }
      (** A new member set for [epoch]; [down] are members known dead. *)
  | Commit of { epoch : int; members : int list }
  | Finish  (** Stop issuing operations, drain and report. *)
  | Ping
  | Pong of { epoch : int; proposed : int; ready : bool; writes : int }
      (** The committed and proposed epochs, whether no donor is still
          owed for the proposal, and the writes issued so far. *)

val supervisor : int
(** The [src] the supervisor stamps on its control frames (0xFFFF):
    outside the node-id range, like client ids. *)

val codec : msg Codec.t

val of_view : Wire.view -> msg
(** Decode a [Control] frame's body in place.  @raise Codec.Bad. *)

val frame : src:int -> dst:int -> msg -> Bytes.t
(** One whole [Control] frame, length prefix included, in a fresh
    buffer, stamped with epoch 0 (control frames cross epochs). *)
