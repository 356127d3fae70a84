(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 1-5) plus the ablations listed in DESIGN.md, from the one
   experiment table in Lfs_workload.Experiment.

   Usage:
     main.exe                 run all experiments at paper scale
     main.exe fig3 fig5       run selected experiments
     main.exe --quick         reduced sizes (used by the test suite)
     main.exe --json FILE     also write the figures as lfs-bench/1
     main.exe --check-json FILE
                              validate a --json file, exit 1 on a problem

   All rates are in *simulated* time on the paper's hardware model
   (WREN IV disk, Sun-4/260 CPU); see EXPERIMENTS.md for paper-vs-measured
   commentary. *)

module E = Lfs_workload.Experiment
module J = Lfs_obs.Json

let say fmt = Printf.printf (fmt ^^ "\n%!")

let header title =
  say "";
  say "==================================================================";
  say "%s" title;
  say "=================================================================="

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let usage () =
  die
    "usage: main.exe [--quick] [--json FILE] [--check-json FILE] \
     [experiment...]\n\
     known experiments: %s"
    (String.concat ", " (List.concat_map E.names E.all))

let check_json file =
  let raw =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  let fail msg =
    Printf.eprintf "%s: %s\n" file msg;
    exit 1
  in
  match J.of_string_opt raw with
  | None -> fail "not valid JSON"
  | Some doc -> (
      match E.check_document doc with
      | Error msg -> fail msg
      | Ok checked ->
          List.iter
            (fun (name, n) -> say "%s: %s ok (%d entries)" file name n)
            checked)

(* Selected experiments run once each, in name order, whatever aliases
   named them; none selected runs the whole table in its own order. *)
let run_all ~quick json_out selected =
  let todo =
    match selected with
    | [] -> E.all
    | l -> List.sort_uniq (fun a b -> compare (E.name a) (E.name b)) l
  in
  let figures =
    List.filter_map
      (fun e ->
        header (E.title e);
        let out = E.run ~quick e in
        print_string out.E.text;
        flush stdout;
        Option.map (fun fig -> (E.name e, fig)) out.E.figure)
      todo
  in
  Option.iter
    (fun (file, oc) ->
      output_string oc (J.to_string_pretty (E.document ~quick figures));
      output_char oc '\n';
      close_out oc;
      say "wrote %s" file)
    json_out

let () =
  let quick = ref false and json_out = ref None and check = ref None in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse rest
    | "--check-json" :: file :: rest ->
        check := Some file;
        parse rest
    | name :: rest -> (
        match E.find name with
        | Some e ->
            selected := e :: !selected;
            parse rest
        | None ->
            Printf.eprintf "unknown argument %S\n" name;
            usage ())
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !check with
  | Some file -> check_json file
  | None ->
      (* Open the output before running anything, so a bad path fails
         in milliseconds rather than after the figures. *)
      let json_out =
        Option.map
          (fun file ->
            try (file, open_out file) with Sys_error e -> die "%s" e)
          !json_out
      in
      run_all ~quick:!quick json_out !selected
