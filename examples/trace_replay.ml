(* Trace record/replay: generate a synthetic office/engineering workload
   trace, save it to a file, and replay it on both file systems on
   identical simulated hardware.

   Run with:  dune exec examples/trace_replay.exe [events] *)

module Trace = Lfs_workload.Trace
module Op = Lfs_workload.Op
module W = Lfs_workload

let () =
  let nevents =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 5_000
  in
  let ops =
    Trace.generate
      ~config:{ Trace.default_gen with Trace.events = nevents; target_live = 800 }
      ()
  in
  (* Traces serialize to plain text, one op per line: save, reload, and
     replay the reloaded copy (so this example also demonstrates the
     format round trip). *)
  let path = Filename.temp_file "lfs_trace" ".txt" in
  let oc = open_out path in
  List.iter (fun op -> output_string oc (Op.to_string op ^ "\n")) ops;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let ops =
    match Op.of_lines text with Ok ops -> ops | Error e -> failwith e
  in
  Printf.printf "trace: %d ops saved to %s and reloaded\n\n" (List.length ops)
    path;
  let creates, reads, writes, deletes =
    List.fold_left
      (fun (c, r, w, d) op ->
        match op with
        | Op.Create _ -> (c + 1, r, w, d)
        | Op.Read _ -> (c, r + 1, w, d)
        | Op.Write _ -> (c, r, w + 1, d)
        | Op.Delete _ -> (c, r, w, d + 1)
        | _ -> (c, r, w, d))
      (0, 0, 0, 0) ops
  in
  Printf.printf "mix: %d creates, %d reads, %d writes, %d deletes\n\n" creates
    reads writes deletes;
  let results =
    List.map (fun inst -> Trace.replay inst ops) (W.Setup.both ~disk_mb:64 ())
  in
  List.iter
    (fun (r : Trace.result) ->
      Printf.printf "%-4s: %7.0f ops/s  (%s written, %s read, %.1f s simulated)\n"
        r.Trace.label r.Trace.ops_per_sec
        (Lfs_util.Table.fmt_bytes r.Trace.bytes_written)
        (Lfs_util.Table.fmt_bytes r.Trace.bytes_read)
        (float_of_int r.Trace.elapsed_us /. 1e6))
    results;
  match results with
  | [ lfs; ffs ] ->
      Printf.printf "\nLFS speedup on the mixed workload: %.1fx\n"
        (lfs.Trace.ops_per_sec /. ffs.Trace.ops_per_sec)
  | _ -> ()
