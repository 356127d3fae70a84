(** One replayable file-system operation: the vocabulary every harness
    shares — trace replay, crash sweeps, scenario streams, model-based
    tests and [lfstool trace].

    An op carries what a replayable record needs: the operation, its
    path(s), and for data ops the offset and length.  Written contents
    are not stored; they are regenerated from a seed
    ({!Driver.content}), so a replayed op writes the same bytes.

    {2 Text form}

    One op is one colon-separated token, trailing fields optional:

    {v
    mkdir:P  create:P  delete:P  readdir:P  sync  flush
    write:P:LEN[:SEED[:OFF]]    SEED defaults to 7, OFF to 0
    append:P:LEN[:SEED]         at the file's current end
    read:P                      the whole file (stat, then read)
    read:P:LEN[:OFF]
    truncate:P:SIZE  rename:SRC:DST  link:SRC:DST
    v}

    Lengths, offsets and sizes are non-negative decimal integers.  Paths
    cannot contain [':'].  {!to_string} prints every field, so
    [of_string (to_string op) = Ok op]. *)

type t =
  | Mkdir of string
  | Create of string
  | Write of { path : string; off : int; seed : int; len : int }
  | Append of { path : string; seed : int; len : int }
  | Read of { path : string; range : (int * int) option }
      (** [range = Some (off, len)]; [None] reads the whole file. *)
  | Truncate of { path : string; size : int }
  | Rename of { src : string; dst : string }
  | Link of { src : string; dst : string }
  | Readdir of string
  | Delete of string
  | Sync
  | Flush  (** write back everything, then drop clean cached blocks *)

val grammar : string
(** The token forms, one line, for usage messages. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse one token; the error names the token and the grammar. *)

val of_lines : string -> (t list, string) result
(** One op per line; blank lines are skipped.  Errors carry the 1-based
    line number. *)

(** {1 Running} *)

type reply = Done | Data of bytes | Names of string list

val run : Lfs_vfs.Fs_intf.instance -> t -> (reply, Lfs_vfs.Errors.t) result
(** Issue the op's file-system calls.  [Read] returns [Data], [Readdir]
    returns [Names], everything else [Done].  A device error raised from
    [sync] or [flush_caches] comes back as [Error]. *)

val apply : Lfs_vfs.Fs_intf.instance -> t -> reply
(** {!run}, failing loudly.
    @raise Driver.Benchmark_failure when the op fails. *)
