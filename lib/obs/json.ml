(** The one JSON codec of the repo: a value type, the printer every
    artifact is written with, a strict RFC 8259 parser, and the accessors
    every reader uses. Nothing else in the tree knows JSON syntax.

    Writers build a {!t} and hand it to {!to_string} / {!write_file}.
    Readers get a {!t} from {!parse} / {!read_file} and walk it with
    {!field}, {!string}, {!int}, ...; those raise {!Invalid}, which each
    reader turns into [Error] at its edge. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* --- Printer --------------------------------------------------------- *)

(* Integers up to 2^53 are exact in a double. *)
let max_exact = 9007199254740992.0

(* Integral numbers print as integers; any other finite number as the
   shortest %g rendering that parses back to the same double. *)
let number_string f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json.to_string: non-finite number %h" f);
  if Float.is_integer f && Float.abs f <= max_exact then
    Printf.sprintf "%.0f" f
  else
    let shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p = 17 || float_of_string s = f then Some s else None
    in
    Option.get (List.find_map shortest [ 15; 16; 17 ])

let scalar = function List (_ :: _) | Obj (_ :: _) -> false | _ -> true

(* One fixed layout: a nested container whose elements are all scalars
   prints on one line; the top-level value and every other container put
   each element on its own line, indented two spaces per level. *)
let to_string v =
  let buf = Buffer.create 1024 in
  let escape_to s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec value indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number f -> Buffer.add_string buf (number_string f)
    | String s -> escape_to s
    | List l -> seq indent '[' ']' (indent > 0 && List.for_all scalar l) value l
    | Obj fields ->
      seq indent '{' '}'
        (indent > 0 && List.for_all (fun (_, x) -> scalar x) fields)
        (fun indent (k, x) ->
          escape_to k;
          Buffer.add_string buf ": ";
          value indent x)
        fields
  and seq :
        'a. int -> char -> char -> bool -> (int -> 'a -> unit) -> 'a list -> unit
      =
   fun indent opening closing flat item l ->
    let inner = indent + 2 in
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        if not flat then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make inner ' ')
        end
        else if i > 0 then Buffer.add_char buf ' ';
        item inner x)
      l;
    if not flat then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end;
    Buffer.add_char buf closing
  in
  value 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file path v =
  let s = to_string v in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- Parser ---------------------------------------------------------- *)

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = fail "%s at offset %d" msg !pos in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
           | Some code ->
             (* Keep it simple: store the code point raw if ASCII, else
                a replacement character; content fidelity beyond ASCII
                is not needed for validation. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_string buf "?"
           | None -> fail "bad \\u escape")
         | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  (* RFC 8259 grammar: optional minus; 0 or a digit run with no leading
     zero; optional fraction of one or more digits; optional exponent of
     one or more digits. *)
  let parse_number () =
    let start = !pos in
    let digits what =
      let first = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = first then fail ("expected a digit " ^ what)
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits "in number";
    if peek () = Some '.' then begin
      advance ();
      digits "after ."
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits "in exponent"
    | _ -> ());
    Number (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        List (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = try Ok (parse_exn s) with Invalid msg -> Error msg

(* Errors name the file, so a reader can report them as they are. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match parse contents with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg))

(* --- Builders and accessors ------------------------------------------ *)

let of_int i = Number (float_of_int i)
let of_int_map pairs = Obj (List.map (fun (k, v) -> (k, of_int v)) pairs)

let describe = function
  | Null -> "null"
  | Bool _ -> "a boolean"
  | Number f -> Printf.sprintf "the number %g" f
  | String s -> Printf.sprintf "the string %S" s
  | List _ -> "an array"
  | Obj _ -> "an object"

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let field key v =
  match v with
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some x -> x
    | None -> fail "missing %S" key)
  | _ -> fail "expected an object with %S, found %s" key (describe v)

let string = function
  | String s -> s
  | v -> fail "expected a string, found %s" (describe v)

let number = function
  | Number f -> f
  | v -> fail "expected a number, found %s" (describe v)

let int = function
  | Number f when Float.is_integer f && Float.abs f <= max_exact ->
    int_of_float f
  | v -> fail "expected an integer, found %s" (describe v)

let list = function
  | List l -> l
  | v -> fail "expected an array, found %s" (describe v)

let obj = function
  | Obj l -> l
  | v -> fail "expected an object, found %s" (describe v)

let int_map v =
  List.map
    (fun (k, x) -> try (k, int x) with Invalid m -> fail "%S: %s" k m)
    (obj v)
