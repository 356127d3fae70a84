(** Shared mutable state of a mounted LFS instance.

    This module only declares the record types threaded through the
    operational modules ({!Block_io}, {!Inode_store}, {!Segwriter},
    {!Write_path}, {!File_io}, {!Block_file}, {!Cleaner}, {!Recovery});
    behaviour lives there.  The public face of the library is {!Fs}
    (whose [t] is this [t]). *)

val owner_raw : int
(** Cache owner for by-address blocks (inode blocks, indirect blocks);
    real files use their positive inum. *)

(** In-memory view of one file: the inode plus lazily loaded pointer
    maps mirroring the on-disk indirect blocks.  Dirty flags mark what
    the next flush must rewrite. *)
type itable_entry = {
  ino : Inode.t;
  mutable ino_dirty : bool;
  mutable ind_map : int array option;
  mutable ind_dirty : bool;
  mutable dind_top : int array option;
  mutable dind_top_dirty : bool;
  mutable dind_children : int array option array;
  mutable dind_child_dirty : Lfs_util.Bitset.t;
}

(** The segment being assembled in memory (§4.1); [seg = -1] when none. *)
type segbuf = {
  mutable seg : int;
  mutable buf : bytes;
  mutable nblocks : int;
  mutable entries_rev : Summary.entry list;
}

(** Registry counter handles for the [lfs.*] instruments in the I/O
    stack's registry.  Operational modules bump these via
    {!Lfs_obs.Metrics.incr}/[add]; readers take a registry snapshot. *)
type lfs_counters = {
  c_segments_written : Lfs_obs.Metrics.counter;
  c_partial_segments : Lfs_obs.Metrics.counter;
  c_blocks_logged : Lfs_obs.Metrics.counter;
  c_segments_cleaned : Lfs_obs.Metrics.counter;
  c_cleaner_bytes_read : Lfs_obs.Metrics.counter;
  c_cleaner_bytes_moved : Lfs_obs.Metrics.counter;
  c_cleaner_passes : Lfs_obs.Metrics.counter;
  c_checkpoints : Lfs_obs.Metrics.counter;
  c_rollforward_segments : Lfs_obs.Metrics.counter;
}

(** [`User] writes may not consume the reserve segments; [`System]
    (cleaner, checkpoint) may. *)
type privilege = [ `System | `User ]

type t = {
  io : Lfs_disk.Io.t;
  config : Config.t;
  layout : Layout.t;
  cache : Lfs_cache.Block_cache.t;
  readahead : Lfs_cache.Readahead.t;
  imap : Imap.t;
  usage : Seg_usage.t;
  itable : (int, itable_entry) Hashtbl.t;
  seg : segbuf;
  mutable victim_buf : bytes;
  ptr_buf : bytes;
  mutable next_seq : int;
  mutable tail_segment : int;
  mutable imap_block_addr : int array;
  mutable usage_block_addr : int array;
  mutable last_checkpoint_us : int;
  mutable last_cp_seq : int;
  mutable cp_flip : bool;
  mutable cleaning : bool;
  mutable flushing : bool;
  mutable policy : Config.policy;
  mutable auto_clean : bool;
  metrics : Lfs_obs.Metrics.t;
  bus : Lfs_obs.Bus.t;
  counters : lfs_counters;
}

val root_inum : int

val create : Lfs_disk.Io.t -> Config.t -> Layout.t -> t
(** Adopts the io's registry and bus; resets the [lfs.*] instruments so a
    remount starts counting from zero (the registry itself is shared). *)

val fresh_itable_entry : Inode.t -> itable_entry
