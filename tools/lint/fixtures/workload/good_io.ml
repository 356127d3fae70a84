(* The same information through the sanctioned layer. *)

let sectors_written io =
  Lfs_obs.Metrics.value
    (Lfs_obs.Metrics.counter (Lfs_disk.Io.metrics io) "disk.sectors_written")

let with_faults io scenario = Lfs_disk.Faulty.attach io scenario
