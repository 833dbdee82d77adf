let of_string text =
  let netlist = Netlist.create () in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun lineno line ->
      let fail msg =
        failwith (Printf.sprintf "netlist: line %d: %s" (lineno + 1) msg)
      in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let words =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      let float_of w =
        match float_of_string_opt w with
        | Some f -> f
        | None -> fail ("bad number " ^ w)
      in
      match words with
      | [] -> ()
      | [ "input"; net ] -> (
          try Netlist.input netlist net
          with Invalid_argument m -> fail m)
      | [ "output"; net ] -> Netlist.output netlist net
      | [ "gate"; name; cell; in_net; out_net ] -> (
          try Netlist.gate netlist ~cell ~name ~input:in_net ~output:out_net
          with Invalid_argument m -> fail m)
      | [ "line"; net; r; c; nsegs ] ->
          let nsegs =
            match int_of_string_opt nsegs with
            | Some n when n >= 1 -> n
            | _ -> fail "bad segment count"
          in
          let spec =
            try
              Interconnect.Rcline.
                { rtotal = float_of r; ctotal = float_of c; nsegs }
            with Invalid_argument m -> fail m
          in
          Netlist.set_load netlist net (Netlist.Line spec)
      | [ "cap"; net; c ] -> Netlist.set_load netlist net (Netlist.Lumped (float_of c))
      | cmd :: _ -> fail ("unknown directive " ^ cmd))
    lines;
  netlist

let to_string netlist =
  let buf = Buffer.create 512 in
  List.iter
    (fun net -> Buffer.add_string buf (Printf.sprintf "input %s\n" net))
    (Netlist.inputs netlist);
  List.iter
    (fun (inst : Netlist.instance) ->
      Buffer.add_string buf
        (Printf.sprintf "gate %s %s %s %s\n" inst.Netlist.name
           inst.Netlist.cell inst.Netlist.input inst.Netlist.output))
    (Netlist.instances netlist);
  List.iter
    (fun net ->
      match Netlist.load_of netlist net with
      | Some (Netlist.Lumped c) ->
          Buffer.add_string buf (Printf.sprintf "cap %s %.6e\n" net c)
      | Some (Netlist.Line spec) ->
          Buffer.add_string buf
            (Printf.sprintf "line %s %.6e %.6e %d\n" net
               spec.Interconnect.Rcline.rtotal spec.Interconnect.Rcline.ctotal
               spec.Interconnect.Rcline.nsegs)
      | None -> ())
    (Netlist.nets netlist);
  List.iter
    (fun net -> Buffer.add_string buf (Printf.sprintf "output %s\n" net))
    (Netlist.outputs netlist);
  Buffer.contents buf

let load path = of_string (Runtime.Record.read_file path)
