(** What the structural checker ({!Block_file.S.fsck}) reports, for both
    file systems. *)

type t =
  | Double_reference of { addr : int; owners : string list }
      (** one disk block claimed live by two different structures *)
  | Address_out_of_range of { owner : string; addr : int }
      (** a pointer off the disk, or into the superblock or (FFS) a
          bitmap/inode-table area *)
  | Bad_dir_entry of { dir : int; name : string; inum : int }
      (** directory entry pointing at an unallocated inode *)
  | Bad_nlink of { inum : int; nlink : int; entries : int }
      (** an inode whose link count disagrees with its directory
          entries *)
  | Orphan_inode of { inum : int }
      (** allocated inode with no directory entry *)
  | Unreadable of { inum : int; reason : string }
      (** allocated inode that does not load *)
  | Leaked_block of { addr : int }
      (** FFS: marked used in its cylinder-group bitmap, referenced by
          nothing *)
  | Lost_block of { owner : string; addr : int }
      (** FFS: referenced by a live structure, marked free in the
          bitmap *)

let pp ppf = function
  | Double_reference { addr; owners } ->
      Format.fprintf ppf "block %d referenced by: %s" addr
        (String.concat ", " owners)
  | Address_out_of_range { owner; addr } ->
      Format.fprintf ppf "%s references out-of-range address %d" owner addr
  | Bad_dir_entry { dir; name; inum } ->
      Format.fprintf ppf "directory %d entry %S points at unallocated inum %d"
        dir name inum
  | Bad_nlink { inum; nlink; entries } ->
      Format.fprintf ppf "inum %d: nlink %d but %d directory entries" inum
        nlink entries
  | Orphan_inode { inum } ->
      Format.fprintf ppf "inum %d allocated but unreachable" inum
  | Unreadable { inum; reason } ->
      Format.fprintf ppf "inum %d unreadable: %s" inum reason
  | Leaked_block { addr } ->
      Format.fprintf ppf
        "block %d marked used in its group bitmap but referenced by nothing"
        addr
  | Lost_block { owner; addr } ->
      Format.fprintf ppf "%s claims block %d, which the group bitmap says is free"
        owner addr

let to_string = Format.asprintf "%a" pp
