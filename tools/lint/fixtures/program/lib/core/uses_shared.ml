(* expect: clean *)
(* Instantiating by include: the argument goes through Io, absorbed. *)
include Lfs_vfs.Shared.Make (struct
  let fetch d = Lfs_disk.Io.sync_read d 0
end)
