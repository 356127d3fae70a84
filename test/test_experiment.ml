(* The experiment table's --check-json invariants, fed inline figures:
   each well-formed figure is accepted, and each doctored copy is
   rejected for the reason it was doctored for. *)

module E = Lfs_workload.Experiment
module J = Lfs_obs.Json

let exp name =
  match E.find name with
  | Some e -> e
  | None -> Alcotest.failf "no experiment %S" name

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let accepts ?claims name fig =
  match E.check ?claims (exp name) fig with
  | Ok n -> Alcotest.(check bool) "entries counted" true (n > 0)
  | Error e -> Alcotest.failf "%s rejected a good figure: %s" name e

let rejects ?claims name ~because fig =
  match E.check ?claims (exp name) fig with
  | Ok _ ->
      Alcotest.failf "%s accepted a figure that should fail (%s)" name because
  | Error e ->
      if not (contains ~sub:because e) then
        Alcotest.failf "%s rejected for %S, expected %S" name e because

let f x = J.Float x
let i x = J.Int x
let s x = J.String x

(* ---- profile: attribution and quantile order ---- *)

let profile_entry ?(cache = 600) ?(p50 = 90) () =
  J.Obj
    [
      ("label", s "LFS"); ("op", s "create"); ("count", i 10);
      ("total_us", i 1000); ("mean_us", f 100.0); ("p50_us", i p50);
      ("p95_us", i 150); ("p99_us", i 200); ("cache_us", i cache);
      ("disk_us", i 400); ("cleaner_us", i 0); ("checkpoint_us", i 0);
    ]

let test_attribution () =
  accepts "profile" (J.List [ profile_entry () ]);
  (* 1020 us of attribution against a 1000 us total: off by 2%. *)
  rejects "profile" ~because:"does not sum to total"
    (J.List [ profile_entry ~cache:620 () ])

let test_quantiles () =
  rejects "profile" ~because:"p50 (300) > p99 (200)"
    (J.List [ profile_entry ~p50:300 () ])

(* ---- fields ---- *)

let fig3_entry create =
  J.Obj
    [
      ("label", s "LFS"); ("create_per_sec", create); ("read_per_sec", f 5.0);
      ("delete_per_sec", f 7.0);
    ]

let test_fields () =
  accepts "fig3" (J.List [ fig3_entry (f 10.0) ]);
  rejects "fig3" ~because:"field \"create_per_sec\" is not a number"
    (J.List [ fig3_entry (s "fast") ]);
  rejects "fig3" ~because:"missing field \"read_per_sec\""
    (J.List [ J.Obj [ ("create_per_sec", f 1.0); ("delete_per_sec", f 1.0) ] ]);
  rejects "fig3" ~because:"has no entries" (J.List []);
  rejects "fig3" ~because:"is not a list" (J.Obj [])

(* ---- read-ahead accounting ---- *)

let readahead_entry ~hit ~wasted =
  J.Obj
    [
      ("label", s "LFS"); ("base_reads", i 512); ("base_kbs", f 300.0);
      ("clustered_reads", i 40); ("clustered_kbs", f 900.0);
      ("read_ratio", f 12.8); ("bandwidth_ratio", f 3.0);
      ("readahead_issued", i 100); ("readahead_hit", i hit);
      ("readahead_wasted", i wasted);
    ]

let test_readahead () =
  accepts "readahead" (J.List [ readahead_entry ~hit:80 ~wasted:20 ]);
  rejects "readahead" ~because:"hit (81) + wasted (20) > issued (100)"
    (J.List [ readahead_entry ~hit:81 ~wasted:20 ])

(* ---- scale-out claims ---- *)

let scaleout_entry label members mbs seeks =
  J.Obj
    [
      ("label", s label); ("policy", s "log_stripe"); ("members", i members);
      ("files", i 256); ("file_size", i 8192); ("elapsed_us", i 1000);
      ("write_mb_per_sec", f mbs); ("sectors_written", i 4096);
      ("seeks_per_member_max", i seeks); ("seeks_per_member_min", i 1);
    ]

let scaleout ?(lfs4 = 3.5) ?(ffs4 = 0.3) ?(seeks4 = 3) () =
  J.List
    [
      scaleout_entry "LFS" 1 1.0 2; scaleout_entry "FFS" 1 0.25 9;
      scaleout_entry "LFS" 4 lfs4 seeks4; scaleout_entry "FFS" 4 ffs4 9;
    ]

let test_scaleout_good () =
  accepts "scaleout" (scaleout ());
  (* lfstool checks a partial sweep without the figure-wide claims. *)
  accepts ~claims:false "scaleout" (J.List [ scaleout_entry "LFS" 1 1.0 2 ]);
  rejects "scaleout" ~because:"missing entry LFS/log_stripe/4"
    (J.List [ scaleout_entry "LFS" 1 1.0 2 ]);
  rejects "scaleout" ~because:"exceed 2x the single-disk log"
    (scaleout ~seeks4:5 ())

let test_lfs_scaling () =
  rejects "scaleout" ~because:"LFS log_stripe 1->4 members scales 2.9x"
    (scaleout ~lfs4:2.9 ())

let test_ffs_scaling () =
  (* Exactly 1.5x, which the claim excludes. *)
  rejects "scaleout" ~because:"FFS 1->4 members scales 1.5x"
    (scaleout ~ffs4:0.375 ())

(* ---- concurrency: accounting and claims ---- *)

let conc_entry ?(per_client = [ 5; 5 ]) ?(p50 = 10) label disc clients ~ops
    ~depth ~pos =
  J.Obj
    [
      ("label", s label); ("discipline", s disc); ("clients", i clients);
      ("total_ops", i 10); ("elapsed_us", i 1000); ("ops_per_sec", f ops);
      ("mean_us", f 15.0); ("p50_us", i p50); ("p99_us", i 20);
      ("mean_queue_depth", f depth); ("mean_queue_wait_us", f 1.0);
      ("mean_positioning_us", f pos);
      ( "per_client",
        J.List
          (List.mapi
             (fun c n -> J.Obj [ ("client", i c); ("ops", i n) ])
             per_client) );
    ]

(* LFS doubles its throughput from 1 to 4 clients, FFS gains 10%; only
   FFS/FCFS at 4 clients queues deep, and C-SCAN cuts its positioning. *)
let concurrency ?(lfs4 = 20.0) ?(ffs_depth = 6.0) ?(cscan_pos = 5000.0)
    ?per_client () =
  J.List
    [
      conc_entry "LFS" "fcfs" 1 ~ops:10.0 ~depth:1.0 ~pos:100.0;
      conc_entry "FFS" "fcfs" 1 ~ops:5.0 ~depth:1.0 ~pos:100.0;
      conc_entry ?per_client "LFS" "fcfs" 4 ~ops:lfs4 ~depth:1.0 ~pos:100.0;
      conc_entry "FFS" "fcfs" 4 ~ops:5.5 ~depth:ffs_depth ~pos:9000.0;
      conc_entry "LFS" "cscan" 1 ~ops:10.0 ~depth:1.0 ~pos:100.0;
      conc_entry "FFS" "cscan" 1 ~ops:5.0 ~depth:1.0 ~pos:100.0;
      conc_entry "LFS" "cscan" 4 ~ops:20.0 ~depth:1.0 ~pos:100.0;
      conc_entry "FFS" "cscan" 4 ~ops:5.5 ~depth:3.0 ~pos:cscan_pos;
    ]

let test_concurrency_good () =
  accepts "concurrency" (concurrency ());
  rejects "concurrency" ~because:"does not beat FFS"
    (concurrency ~lfs4:10.5 ());
  rejects ~claims:false "concurrency" ~because:"p50 (30) > p99 (20)"
    (J.List [ conc_entry ~p50:30 "LFS" "fcfs" 1 ~ops:1.0 ~depth:1.0 ~pos:1.0 ])

let test_cscan () =
  rejects "concurrency" ~because:"C-SCAN positioning (9000 us) not below FCFS"
    (concurrency ~cscan_pos:9000.0 ())

let test_deep_pair () =
  rejects "concurrency" ~because:"no FCFS run reached mean queue depth >= 4"
    (concurrency ~ffs_depth:3.9 ())

let test_per_client () =
  rejects "concurrency" ~because:"per-client ops 9 do not sum to total 10"
    (concurrency ~per_client:[ 5; 4 ] ());
  rejects ~claims:false "concurrency" ~because:"do not sum to total"
    (J.List
       [
         conc_entry ~per_client:[ 3 ] "LFS" "fcfs" 1 ~ops:1.0 ~depth:1.0
           ~pos:1.0;
       ])

(* ---- documents and the table ---- *)

let test_document () =
  let doc figs = E.document ~quick:true figs in
  let readahead ~hit ~wasted = J.List [ readahead_entry ~hit ~wasted ] in
  (* Figures of experiments that emit none are not checked. *)
  let good =
    doc [ ("readahead", readahead ~hit:1 ~wasted:1); ("segsize", J.Null) ]
  in
  (match E.check_document good with
  | Ok [ ("readahead", 1) ] -> ()
  | Ok _ -> Alcotest.fail "unexpected figures checked"
  | Error e -> Alcotest.failf "good document rejected: %s" e);
  let err d =
    match E.check_document d with
    | Ok _ -> Alcotest.fail "bad document accepted"
    | Error e -> e
  in
  Alcotest.(check string) "empty" "\"figures\" is empty" (err (doc []));
  Alcotest.(check string) "schema" "missing \"schema\"" (err (J.Obj []));
  Alcotest.(check bool) "figure checked" true
    (contains ~sub:"hit (2)"
       (err (doc [ ("readahead", readahead ~hit:2 ~wasted:99) ])))

let test_table () =
  let canonical n = Option.map E.name (E.find n) in
  Alcotest.(check (option string)) "fig1" (Some "fig12") (canonical "fig1");
  Alcotest.(check (option string)) "fig2" (Some "fig12") (canonical "fig2");
  Alcotest.(check (option string)) "unknown" None (canonical "fig9");
  let names = List.map E.name E.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "check: missing or non-numeric field" test_fields;
    case "check: profile attribution off by 2%" test_attribution;
    case "check: profile p50 > p99" test_quantiles;
    case "check: readahead hit + wasted > issued" test_readahead;
    case "check: scaleout LFS below 3x" test_lfs_scaling;
    case "check: scaleout FFS at or above 1.5x" test_ffs_scaling;
    case "check: scaleout good figure and seeks" test_scaleout_good;
    case "check: concurrency C-SCAN not below FCFS" test_cscan;
    case "check: concurrency no deep FCFS pair" test_deep_pair;
    case "check: concurrency per-client ops sum" test_per_client;
    case "check: concurrency good figure and ratio" test_concurrency_good;
    case "check: lfs-bench/1 documents" test_document;
    case "table: aliases and names" test_table;
  ]
