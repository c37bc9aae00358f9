(** Durable file IO: the fsync-ordering primitives the WAL and the node
    checkpoints are built on, plus the seeded crash-point registry that
    lets a chaos plan kill the process at named steps {e inside} the
    durability write path.

    The ordering rules (see DESIGN.md):
    - data reaches disk only after [fsync] on the file descriptor;
    - a rename is durable only after [fsync] on the {e parent directory};
    - therefore an atomic replace is: write tmp, fsync tmp, rename,
      fsync dir — in that order, nothing skipped. *)

val fsync_fd : Unix.file_descr -> unit

val fsync_dir : string -> unit
(** Fsync a directory by path (open read-only, fsync, close).  Filesystems
    that reject fsync on directories (EINVAL) are tolerated: there the
    rename is already as durable as the platform allows. *)

val remove_tree : string -> unit
(** Remove a file, or a directory and everything under it.  Best effort:
    a missing path is a no-op and removal errors are ignored — it cleans
    up scratch directories. *)

(** Named kill switches inside the durability write path.

    A chaos plan arms a point with a hit countdown; the WAL and blob
    writers call {!hit}/{!fire} at the matching step, and when the
    countdown reaches zero the armed action runs — in the cluster harness
    that action raises [Chaos.Injected_crash], so the process dies at
    exactly that step, deterministically.  [powercut] additionally invokes
    the registered hook first (the WAL truncates its log to the last
    synced offset), emulating media that loses write-cache contents, not
    just the process. *)
module Crashpoint : sig
  val points : string list
  (** The canonical point names, in write-path order:
      [append.pre] — before a record frame is written;
      [append.mid] — after half the frame is written (torn record);
      [append.post] — frame written, not yet synced;
      [sync.pre] / [sync.post] — around the log fsync;
      [ck.synced] — checkpoint blob tmp fsynced, before the rename;
      [ck.renamed] — blob renamed, before the directory fsync;
      [rotate.log.created] — next-generation log durable, before the old
      log is unlinked;
      [rotate.done] — old log unlinked and directory fsynced. *)

  val is_point : string -> bool

  val arm :
    point:string -> ?after:int -> ?powercut:bool -> (unit -> unit) -> unit
  (** Arm [point]: the [after]-th hit (default 1) invokes the action.
      @raise Invalid_argument on an unknown point or [after < 1]. *)

  val disarm : unit -> unit
  (** Clear every armed point (tests reuse the process). *)

  val set_powercut_hook : (unit -> unit) -> unit
  (** Installed by the WAL: truncate the live log to its synced floor. *)

  val fire : string -> (unit -> unit) option
  (** Count a hit at [point].  [Some kill] when an armed countdown just
      reached zero — the caller invokes [kill] at the precise step (e.g.
      after writing half a record).  [None] otherwise; free when nothing
      is armed. *)

  val hit : string -> unit
  (** [fire] and invoke immediately — the common case. *)
end

(** Self-describing durable blobs: a fixed header (magic, format version,
    two meta slots, payload length + CRC32) in front of an opaque payload,
    written with the full atomic-replace fsync discipline.  Node
    checkpoints and the WAL's rotation checkpoint both use this format, so
    a corrupt or foreign file is rejected with a clear error instead of
    being fed to [Marshal]. *)
module Blob : sig
  val header_bytes : int

  val write :
    path:string -> magic:string -> version:int -> meta:int * int ->
    string -> unit
  (** Atomic durable replace of [path] ([magic] must be 4 bytes).  Hits
      crash points [ck.synced] and [ck.renamed] at the matching steps. *)

  val read :
    path:string -> magic:string -> version:int ->
    ((int * int) * string, string) result
  (** Validate magic, version, length and CRC; [Error] describes exactly
      what is wrong ("bad magic", "payload CRC mismatch", ...). *)
end
