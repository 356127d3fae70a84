(* A pure reference file system: the specification both LFS and FFS are
   tested against.  Regular files are ids into a content table, so hard
   links alias naturally.  No I/O, no clock — every op is a total
   function over the in-memory tree, which is what lets scenario runs
   and model tests compare a real file system against it step by
   step. *)

type t

val create : unit -> t

val apply : t -> Lfs_workload.Op.t -> (Lfs_workload.Op.reply, unit) result
(** Run one op.  On success the reply is what {!Lfs_workload.Op.run}
    must return on a correct file system; [Error ()] means the file
    system must fail the op too.  An [Append] extends the model's own
    copy of the file. *)

(* Oracle views for whole-tree checks; paths are absolute strings. *)
val file_id : t -> string -> int option
val all_files : t -> (string * bytes) list
val all_dirs : t -> string list
val nlink_of_path : t -> string -> int
