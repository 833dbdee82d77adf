let bprint_floats buf a =
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%.8e" x))
    a

let bprint_table buf name (t : Nldm.table) indent =
  let pad = String.make indent ' ' in
  Buffer.add_string buf (Printf.sprintf "%s%s {\n" pad name);
  Array.iter
    (fun row ->
      Buffer.add_string buf (pad ^ "  ");
      bprint_floats buf row;
      Buffer.add_string buf ";\n")
    t.Nldm.values;
  Buffer.add_string buf (pad ^ "}\n")

let bprint_arc buf name (a : Nldm.arc) =
  Buffer.add_string buf (Printf.sprintf "    timing(%s) {\n" name);
  Buffer.add_string buf "      index_slew: ";
  bprint_floats buf a.Nldm.delay.Nldm.slews;
  Buffer.add_string buf ";\n      index_load: ";
  bprint_floats buf a.Nldm.delay.Nldm.loads;
  Buffer.add_string buf ";\n";
  bprint_table buf "delay" a.Nldm.delay 6;
  bprint_table buf "trans" a.Nldm.trans 6;
  Buffer.add_string buf "    }\n"

let to_string cells =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "library(noisy_sta) {\n";
  List.iter
    (fun (ct : Nldm.cell_timing) ->
      Buffer.add_string buf (Printf.sprintf "  cell(%s) {\n" ct.Nldm.cell);
      Buffer.add_string buf
        (Printf.sprintf "    input_cap: %.8e;\n" ct.Nldm.input_cap);
      Buffer.add_string buf
        (Printf.sprintf "    sense: %s;\n"
           (if ct.Nldm.inverting then "negative_unate" else "positive_unate"));
      bprint_arc buf "out_rise" ct.Nldm.out_rise;
      bprint_arc buf "out_fall" ct.Nldm.out_fall;
      Buffer.add_string buf "  }\n")
    cells;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- Parsing: a tiny tokenizer plus recursive descent. --- *)

type token =
  | Ident of string
  | Number of float
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Colon
  | Semi

type lexer = { mutable toks : (token * int) list }

let tokenize s =
  let toks = ref [] in
  let line = ref 1 in
  let n = String.length s in
  let i = ref 0 in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '+' || c = '-' || c = 'e' || c = 'E'
  in
  while !i < n do
    let c = s.[!i] in
    (match c with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '(' -> toks := (Lparen, !line) :: !toks; incr i
    | ')' -> toks := (Rparen, !line) :: !toks; incr i
    | '{' -> toks := (Lbrace, !line) :: !toks; incr i
    | '}' -> toks := (Rbrace, !line) :: !toks; incr i
    | ':' -> toks := (Colon, !line) :: !toks; incr i
    | ';' -> toks := (Semi, !line) :: !toks; incr i
    | _ when is_word c ->
        let j = ref !i in
        while !j < n && is_word s.[!j] do incr j done;
        let w = String.sub s !i (!j - !i) in
        i := !j;
        let tok =
          match float_of_string_opt w with
          | Some f when w.[0] = '-' || w.[0] = '+' || (w.[0] >= '0' && w.[0] <= '9') ->
              Number f
          | _ -> Ident w
        in
        toks := (tok, !line) :: !toks
    | _ -> failwith (Printf.sprintf "libfile: line %d: bad character %C" !line c));
  done;
  { toks = List.rev !toks }

let fail_at line msg = failwith (Printf.sprintf "libfile: line %d: %s" line msg)

let peek lx = match lx.toks with [] -> None | (t, l) :: _ -> Some (t, l)

let next lx =
  match lx.toks with
  | [] -> failwith "libfile: unexpected end of input"
  | (t, l) :: rest ->
      lx.toks <- rest;
      (t, l)

let expect lx want name =
  let t, l = next lx in
  if t <> want then fail_at l ("expected " ^ name)

let expect_ident lx =
  match next lx with
  | Ident s, _ -> s
  | _, l -> fail_at l "expected identifier"

let numbers_until_semi lx =
  let rec go acc =
    match next lx with
    | Number f, _ -> go (f :: acc)
    | Semi, _ -> Array.of_list (List.rev acc)
    | _, l -> fail_at l "expected number or ';'"
  in
  go []

(* name(arg) { ... } header: consumes "name ( arg ) {" and gives arg. *)
let header lx name =
  let id = expect_ident lx in
  if id <> name then failwith ("libfile: expected " ^ name ^ ", got " ^ id);
  expect lx Lparen "'('";
  let arg = expect_ident lx in
  expect lx Rparen "')'";
  expect lx Lbrace "'{'";
  arg

let parse_matrix lx =
  expect lx Lbrace "'{'";
  let rec rows acc =
    match peek lx with
    | Some (Rbrace, _) ->
        ignore (next lx);
        Array.of_list (List.rev acc)
    | Some (Number _, _) -> rows (numbers_until_semi lx :: acc)
    | Some (_, l) -> fail_at l "expected row or '}'"
    | None -> failwith "libfile: unexpected end in table"
  in
  rows []

let parse_arc lx =
  let field lx name =
    let id = expect_ident lx in
    if id <> name then failwith ("libfile: expected " ^ name);
    expect lx Colon "':'";
    numbers_until_semi lx
  in
  let slews = field lx "index_slew" in
  let loads = field lx "index_load" in
  let delay_name = expect_ident lx in
  if delay_name <> "delay" then failwith "libfile: expected delay table";
  let delay = parse_matrix lx in
  let trans_name = expect_ident lx in
  if trans_name <> "trans" then failwith "libfile: expected trans table";
  let trans = parse_matrix lx in
  expect lx Rbrace "'}'";
  {
    Nldm.delay = Nldm.table ~slews ~loads ~values:delay;
    trans = Nldm.table ~slews ~loads ~values:trans;
  }

let parse_cell lx =
  let name = header lx "cell" in
  let id = expect_ident lx in
  if id <> "input_cap" then failwith "libfile: expected input_cap";
  expect lx Colon "':'";
  let cap =
    match next lx with
    | Number f, _ -> f
    | _, l -> fail_at l "expected number"
  in
  expect lx Semi "';'";
  (* Optional sense attribute (defaults to negative-unate for files
     written before it existed). *)
  let inverting = ref true in
  (match peek lx with
  | Some (Ident "sense", _) ->
      ignore (next lx);
      expect lx Colon "':'";
      let v = expect_ident lx in
      expect lx Semi "';'";
      (match v with
      | "negative_unate" -> inverting := true
      | "positive_unate" -> inverting := false
      | _ -> failwith ("libfile: bad sense " ^ v))
  | _ -> ());
  let arcs = Hashtbl.create 2 in
  let rec read_arcs () =
    match peek lx with
    | Some (Rbrace, _) -> ignore (next lx)
    | _ ->
        let which = header lx "timing" in
        Hashtbl.replace arcs which (parse_arc lx);
        read_arcs ()
  in
  read_arcs ();
  let get which =
    match Hashtbl.find_opt arcs which with
    | Some a -> a
    | None -> failwith ("libfile: cell " ^ name ^ " missing arc " ^ which)
  in
  {
    Nldm.cell = name;
    input_cap = cap;
    inverting = !inverting;
    out_rise = get "out_rise";
    out_fall = get "out_fall";
  }

let of_string s =
  let lx = tokenize s in
  let _lib = header lx "library" in
  let rec cells acc =
    match peek lx with
    | Some (Rbrace, _) ->
        ignore (next lx);
        List.rev acc
    | Some _ -> cells (parse_cell lx :: acc)
    | None -> failwith "libfile: unexpected end of library"
  in
  cells []

let save path cells = Runtime.Record.write_atomic path (to_string cells)
let load path = of_string (Runtime.Record.read_file path)

let find cells name =
  match List.find_opt (fun c -> c.Nldm.cell = name) cells with
  | Some c -> c
  | None -> raise Not_found
