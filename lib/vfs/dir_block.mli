(** Directory block format shared by both file systems.

    A directory file is a sequence of self-contained blocks (an entry
    never spans blocks, as in BSD): each block holds a u16 entry count
    followed by packed [(u32 inum, u16 len, name)] entries, newest first,
    then zero padding to the end of the block.

    {!parse} and {!encode} convert whole blocks to and from entry lists.
    The directory operations of both file systems instead work on the
    encoded block in place, through {!find}, {!fits}, {!insert_front} and
    {!remove}: they scan the cache's own buffer and edit it without
    building a list or a new block.  An edit leaves exactly the bytes
    [encode] would produce for the edited list, padding included.  Every
    in-place walk checks each entry against the block bounds, so on a
    corrupt block (an entry count that overruns it, a truncated name)
    they raise {!Lfs_util.Codec.Error} where {!parse} would. *)

val parse : bytes -> (string * int) list
(** Entries of one block.  @raise Lfs_util.Codec.Error on corruption. *)

val encode : block_size:int -> (string * int) list -> bytes
(** One full block.  @raise Lfs_util.Codec.Error if the entries overflow
    the block. *)

val entry_bytes : string -> int
(** On-disk size of one entry with the given name. *)

val find : bytes -> string -> int option
(** The inum of the first entry named [name], as
    [List.assoc_opt name (parse block)].
    @raise Lfs_util.Codec.Error on corruption. *)

val fits : bytes -> string -> bool
(** Whether one more entry named [name] fits in the block.
    @raise Lfs_util.Codec.Error on corruption. *)

val insert_front : bytes -> string -> int -> unit
(** Prepend the entry [(name, inum)] in place: the block becomes
    [encode ((name, inum) :: parse block)].
    @raise Lfs_util.Codec.Error on corruption, or if the entry does not
    fit (see {!fits}). *)

val remove : bytes -> string -> bool
(** Remove the first entry named [name] in place, as [List.remove_assoc];
    [false] (and the block untouched) if there is none.
    @raise Lfs_util.Codec.Error on corruption. *)
