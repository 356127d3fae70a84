(* expect: transitive-disk-io *)
(* The include makes the functor body's effects visible to callers of
   the instantiating module: [poke] writes the disk directly. *)
let prime d = Lfs_core.Uses_shared.poke d
