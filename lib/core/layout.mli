(** On-disk layout.

    {v
    block 0      : superblock
    blocks 1..   : checkpoint region A
    blocks ..    : checkpoint region B
    blocks ..    : segment 0, segment 1, ...  (each: summary block + payload)
    v}

    All addresses are in file-system blocks from the start of the disk;
    address [0] doubles as the null pointer (the superblock can never be a
    data block). *)

type t = {
  block_size : int;
  block_sectors : int;  (** sectors per block *)
  total_blocks : int;
  seg_blocks : int;  (** blocks per segment including the summary region *)
  summary_blocks : int;  (** blocks of summary at the segment's head *)
  payload_blocks : int;  (** [seg_blocks - summary_blocks] *)
  nsegments : int;
  first_segment_block : int;
      (** first block of segment 0 — right after checkpoint region B, or
          pushed up to the next [align_sectors] boundary *)
  cp_blocks : int;  (** blocks per checkpoint region *)
  cp_region : int * int;  (** block addresses of regions A and B *)
  max_files : int;
  n_imap_blocks : int;
  n_usage_blocks : int;
  align_sectors : int;
      (** the {!Config.t.segment_align_sectors} the layout was computed
          with; recorded in the superblock (a mount must re-derive the
          same segment area) *)
}

val imap_entry_bytes : int
val usage_entry_bytes : int
val inode_bytes : int

val imap_entries_per_block : t -> int
val usage_entries_per_block : t -> int
val inodes_per_block : t -> int
val ptrs_per_block : t -> int

val compute : Config.t -> Lfs_disk.Geometry.t -> (t, string) result
(** Derive the layout for a disk; fails if the disk is too small, the
    segment payload cannot be described by one summary block, or the
    configuration is invalid. *)

val null_addr : int

val sector_of_block : t -> int -> int
val in_segment_area : t -> int -> bool
(** Whether a block lies in some segment. *)

val segment_of_block : t -> int -> int
(** Segment index containing a block.  @raise Invalid_argument for blocks
    outside the segment area. *)

val segment_first_block : t -> int -> int
(** Address of segment [i]'s summary region. *)

val segment_payload_block : t -> seg:int -> idx:int -> int
(** Address of payload block [idx] of segment [seg]. *)

val payload_index_of_block : t -> int -> int
(** Inverse of {!segment_payload_block} within the block's segment.
    @raise Invalid_argument if the block is a summary block. *)

(** {1 Superblock} *)

val encode_superblock : t -> bytes
(** One block. *)

val decode_superblock : bytes -> Lfs_disk.Geometry.t -> (t, string) result
(** Validate magic and CRC, recompute and cross-check the layout against
    the geometry the disk actually has. *)

val pp : Format.formatter -> t -> unit
