(** The §3.1 two-file creation example (Figures 1 and 2).

    Runs
    {v
    creat("dir1/file1"); write(1 block); close
    creat("dir2/file2"); write(1 block); close
    v}
    against a file system with a [Disk_request] sink on its trace bus,
    flushes the delayed writes, and reports every disk write that
    resulted — enough to show FFS's small random writes (half
    synchronous) versus LFS's single large sequential transfer. *)

module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event

type summary = {
  label : string;
  writes : int;
  sync_writes : int;
  sequential_writes : int;
  sectors_written : int;
  requests : Event.record list;  (** write [Disk_request]s, in order *)
}

let is_write = function
  | Event.Disk_request { kind = Event.Write; _ } -> true
  | _ -> false

let run inst =
  let block =
    match Driver.label inst with
    | "LFS" -> 4096
    | _ -> 8192
  in
  (* Directories exist beforehand, as in the paper's example. *)
  Driver.mkdir inst "/dir1";
  Driver.mkdir inst "/dir2";
  Driver.sync inst;
  let bus = Driver.bus inst in
  let sink = Bus.attach ~filter:is_write bus in
  Driver.create inst "/dir1/file1";
  Driver.write inst "/dir1/file1" ~off:0 (Driver.content ~seed:1 block);
  Driver.create inst "/dir2/file2";
  Driver.write inst "/dir2/file2" ~off:0 (Driver.content ~seed:2 block);
  (* The delayed write-back of Figure 1. *)
  Driver.sync inst;
  let requests = Bus.records sink in
  Bus.detach bus sink;
  let sync_writes, sequential_writes, sectors_written =
    List.fold_left
      (fun ((syncs, seqs, total) as acc) (r : Event.record) ->
        match r.Event.event with
        | Event.Disk_request { sync; sequential; sectors; _ } ->
            ( (if sync then syncs + 1 else syncs),
              (if sequential then seqs + 1 else seqs),
              total + sectors )
        | _ -> acc)
      (0, 0, 0) requests
  in
  let result =
    {
      label = Driver.label inst;
      writes = List.length requests;
      sync_writes;
      sequential_writes;
      sectors_written;
      requests;
    }
  in
  Driver.sanitize inst;
  result
