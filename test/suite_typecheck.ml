(* Type checker unit tests. *)

open Csyntax

let check_ok src =
  try ignore (Typecheck.check_source src)
  with Typecheck.Error (m, loc) ->
    Alcotest.failf "type error at %s: %s" (Loc.to_string loc) m

let check_fails src =
  match Typecheck.check_source src with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.failf "expected type error on %S" src

(* the type of the first (outermost) expression of [probe] inside a
   one-statement main, with [decls] in scope *)
let type_of_probe decls probe =
  let src = Printf.sprintf "%s\nint main(void) { %s; return 0; }" decls probe in
  let p, _ = Typecheck.check_source src in
  let result = ref None in
  List.iter
    (function
      | Ast.Gfunc f when f.Ast.f_name = "main" ->
          ignore
            (Ast.fold_stmt_exprs
               (fun () e ->
                 if !result = None then result := e.Ast.ety)
               () f.Ast.f_body)
      | _ -> ())
    p.Ast.prog_globals;
  match !result with
  | Some t -> t
  | None -> Alcotest.fail "no expression found"

let ty = Alcotest.testable (Fmt.of_to_string Ctype.to_string) Ctype.equal

let test_arith_conversions () =
  Alcotest.check ty "char+char promotes to int" Ctype.Int
    (type_of_probe "char a; char b;" "a + b");
  Alcotest.check ty "int+long = long" Ctype.Long
    (type_of_probe "int a; long b;" "a + b");
  Alcotest.check ty "comparison is int" Ctype.Int
    (type_of_probe "long a; long b;" "a < b")

let test_pointer_arith () =
  Alcotest.check ty "ptr + int" (Ctype.Ptr Ctype.Char)
    (type_of_probe "char *p;" "p + 3");
  Alcotest.check ty "int + ptr" (Ctype.Ptr Ctype.Int)
    (type_of_probe "int *p;" "2 + p");
  Alcotest.check ty "ptr - ptr = long" Ctype.Long
    (type_of_probe "char *p; char *q;" "p - q");
  check_fails "int main(void) { int *p; int *q; p + q; return 0; }"

let test_array_decay () =
  Alcotest.check ty "array subscripts" Ctype.Int
    (type_of_probe "int a[10];" "a[3]");
  Alcotest.check ty "array in rvalue decays"
    (Ctype.Ptr Ctype.Int)
    (type_of_probe "int a[10];" "a + 1");
  Alcotest.check ty "reversed subscript" Ctype.Char
    (type_of_probe "char *p;" "3[p]")

let test_struct_access () =
  let decls = "struct s { int x; char *name; struct s *next; }; struct s g; struct s *p;" in
  Alcotest.check ty "field" Ctype.Int (type_of_probe decls "g.x");
  Alcotest.check ty "arrow" (Ctype.Ptr Ctype.Char) (type_of_probe decls "p->name");
  Alcotest.check ty "chain" Ctype.Int (type_of_probe decls "p->next->x");
  check_fails (decls ^ " int main(void) { g.nofield; return 0; }");
  check_fails (decls ^ " int main(void) { g->x; return 0; }")

let test_deref_addr () =
  Alcotest.check ty "deref" Ctype.Char (type_of_probe "char *p;" "*p");
  Alcotest.check ty "addr" (Ctype.Ptr Ctype.Long) (type_of_probe "long v;" "&v");
  check_fails "int main(void) { int x; *x; return 0; }";
  check_fails "int main(void) { void *p; *p; return 0; }";
  check_fails "int main(void) { &(1 + 2); return 0; }"

let test_calls () =
  check_ok "int f(int a, char *b); int main(void) { return f(1, \"x\"); }";
  check_fails "int f(int a); int main(void) { return f(); }";
  check_fails "int f(int a); int main(void) { return f(1, 2); }";
  check_fails "int main(void) { return nosuch(1); }";
  (* varargs accept extras *)
  check_ok "int main(void) { printf(\"%d %d\", 1, 2); return 0; }";
  (* builtins are known *)
  check_ok "int main(void) { char *p = (char *)malloc(10); return (int)strlen(p); }"

let test_assignment_rules () =
  check_ok "int main(void) { char *p; p = 0; return 0; }";
  check_ok "struct s { int x; }; struct s a; struct s b; int main(void) { a = b; return 0; }";
  check_fails "struct s { int x; }; struct t { int y; }; struct s a; struct t b; int main(void) { a = b; return 0; }";
  check_fails "int main(void) { 1 = 2; return 0; }";
  check_fails "int main(void) { int a[3]; int b[3]; a + 0 = b; return 0; }"

let test_returns () =
  check_fails "void f(void) { return 1; }";
  check_fails "int f(void) { return; }";
  check_ok "void f(void) { return; }";
  check_ok "char *f(void) { return 0; }"

let test_scoping () =
  check_ok
    "int main(void) { int x = 1; { int x = 2; x++; } return x; }";
  check_fails "int main(void) { { int y = 1; } return y; }";
  check_fails "int main(void) { return z; }"

let test_incomplete_types () =
  check_fails "int main(void) { struct nosuch s; return 0; }";
  check_fails "char buf[]; int main(void) { return 0; }";
  (* pointers to undefined structs are fine *)
  check_ok "struct fwd; struct fwd *p; int main(void) { return p == 0; }"

let test_increment () =
  check_ok "int main(void) { int i = 0; i++; ++i; i--; --i; return i; }";
  check_ok "int main(void) { char *p = 0; p++; return 0; }";
  check_fails "int main(void) { 5++; return 0; }";
  check_fails "struct s { int x; }; struct s v; int main(void) { v++; return 0; }"

let test_conditional () =
  Alcotest.check ty "int/long branches" Ctype.Long
    (type_of_probe "int a; long b;" "a ? a : b");
  Alcotest.check ty "ptr/zero branches" (Ctype.Ptr Ctype.Char)
    (type_of_probe "char *p;" "p ? p : 0");
  check_fails "struct s { int x; }; struct s v; int main(void) { v ? 1 : 2; return 0; }"

let test_sizeof () =
  check_ok
    {|struct s { char c; long l; };
int main(void) {
  long a = sizeof(char);
  long b = sizeof(struct s);
  long c = sizeof(int *);
  return (int)(a + b + c);
}|}

let test_struct_layouts () =
  let src = "struct s { char c; int i; char d; long l; };" in
  let p = Parser.parse_program src in
  let env = p.Ast.prog_env in
  match Ctype.Env.find env "s" with
  | None -> Alcotest.fail "no layout"
  | Some lay ->
      let off name =
        (List.find (fun f -> f.Ctype.fld_name = name) lay.Ctype.lay_fields)
          .Ctype.fld_offset
      in
      Alcotest.(check int) "c at 0" 0 (off "c");
      Alcotest.(check int) "i at 4" 4 (off "i");
      Alcotest.(check int) "d at 8" 8 (off "d");
      Alcotest.(check int) "l at 16" 16 (off "l");
      Alcotest.(check int) "size 24" 24 lay.Ctype.lay_size;
      Alcotest.(check int) "align 8" 8 lay.Ctype.lay_align

let test_union_layout () =
  let src = "union u { char c[5]; long l; int i; };" in
  let p = Parser.parse_program src in
  match Ctype.Env.find p.Ast.prog_env "u" with
  | None -> Alcotest.fail "no layout"
  | Some lay ->
      Alcotest.(check int) "size 8" 8 lay.Ctype.lay_size;
      List.iter
        (fun f -> Alcotest.(check int) "offset 0" 0 f.Ctype.fld_offset)
        lay.Ctype.lay_fields

let test_contains_pointer () =
  let src =
    "struct inner { int a; char *p; }; struct outer { int b; struct inner i; }; struct plain { int x; long y; };"
  in
  let p = Parser.parse_program src in
  let env = p.Ast.prog_env in
  Alcotest.(check bool) "outer has pointer" true
    (Ctype.contains_pointer env (Ctype.Struct "outer"));
  Alcotest.(check bool) "plain has none" false
    (Ctype.contains_pointer env (Ctype.Struct "plain"));
  Alcotest.(check bool) "array of ptr" true
    (Ctype.contains_pointer env (Ctype.Array (Ctype.Ptr Ctype.Int, Some 4)))

let test_workloads_typecheck () =
  check_ok Workloads.Cord.source;
  check_ok Workloads.Cfrac.source;
  check_ok Workloads.Gawk.source;
  check_ok Workloads.Gawk.source_fixed;
  check_ok Workloads.Gs.source

(* --- Symtab against the list-of-scopes table it replaced ----------------- *)

(* The scoped table as first written: one hash table per scope, lookup
   walking from the innermost scope outward. *)
module Reference_symtab = struct
  type 'a t = { mutable scopes : (string, 'a) Hashtbl.t list }

  let create () = { scopes = [ Hashtbl.create 16 ] }
  let enter_scope t = t.scopes <- Hashtbl.create 8 :: t.scopes

  let exit_scope t =
    match t.scopes with
    | [] | [ _ ] -> invalid_arg "Symtab.exit_scope: no scope to exit"
    | _ :: rest -> t.scopes <- rest

  let add t name v =
    match t.scopes with
    | [] -> invalid_arg "Symtab.add: no scope"
    | scope :: _ -> Hashtbl.replace scope name v

  let find t name =
    let rec loop = function
      | [] -> None
      | scope :: rest -> (
          match Hashtbl.find_opt scope name with
          | Some v -> Some v
          | None -> loop rest)
    in
    loop t.scopes

  let mem t name = Option.is_some (find t name)

  let mem_innermost t name =
    match t.scopes with [] -> false | scope :: _ -> Hashtbl.mem scope name

  let in_scope t f =
    enter_scope t;
    Fun.protect ~finally:(fun () -> exit_scope t) f
end

type symtab_op =
  | Enter
  | Exit
  | Add of string * int
  | Find of string
  | Mem of string
  | Mem_innermost of string
  | In_scope of symtab_op list * bool  (** the body, and whether it raises *)

let rec show_op = function
  | Enter -> "enter"
  | Exit -> "exit"
  | Add (x, v) -> Printf.sprintf "add %s %d" x v
  | Find x -> "find " ^ x
  | Mem x -> "mem " ^ x
  | Mem_innermost x -> "mem_innermost " ^ x
  | In_scope (body, raises) ->
      Printf.sprintf "in_scope%s [%s]"
        (if raises then " (raises)" else "")
        (String.concat "; " (List.map show_op body))

module type SYMTAB = sig
  type 'a t

  val create : unit -> 'a t
  val enter_scope : 'a t -> unit
  val exit_scope : 'a t -> unit
  val add : 'a t -> string -> 'a -> unit
  val find : 'a t -> string -> 'a option
  val mem : 'a t -> string -> bool
  val mem_innermost : 'a t -> string -> bool
  val in_scope : 'a t -> (unit -> 'b) -> 'b
end

(* What a script observes: every answer and every exception, in order. *)
module Observe (S : SYMTAB) = struct
  exception Body_raised

  let run script =
    let t = S.create () in
    let log = ref [] in
    let say s = log := s :: !log in
    let rec op = function
      | Enter -> S.enter_scope t
      | Exit -> S.exit_scope t
      | Add (x, v) -> S.add t x v
      | Find x ->
          say (match S.find t x with Some v -> string_of_int v | None -> "-")
      | Mem x -> say (string_of_bool (S.mem t x))
      | Mem_innermost x -> say (string_of_bool (S.mem_innermost t x))
      | In_scope (body, raises) ->
          S.in_scope t (fun () ->
              List.iter guarded body;
              if raises then raise Body_raised)
    and guarded o =
      try op o with
      | Body_raised -> say "body raised"
      | e -> say (Printexc.to_string e)
    in
    List.iter guarded script;
    List.rev !log
end

module Observe_library = Observe (Symtab)
module Observe_reference = Observe (Reference_symtab)

let symtab_script_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d" ] in
  let rec op depth =
    frequency
      ([
         (3, return Enter);
         (3, return Exit);
         (5, map2 (fun x v -> Add (x, v)) name (int_bound 99));
         (4, map (fun x -> Find x) name);
         (2, map (fun x -> Mem x) name);
         (2, map (fun x -> Mem_innermost x) name);
       ]
      @
      if depth = 0 then []
      else
        [
          ( 2,
            map2
              (fun body raises -> In_scope (body, raises))
              (list_size (int_bound 6) (op (depth - 1)))
              bool );
        ])
  in
  list_size (int_range 1 40) (op 2)

let prop_symtab_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"symtab == list-of-scopes reference on random scripts"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       symtab_script_gen)
    (fun script ->
      let lib = Observe_library.run script
      and ref_ = Observe_reference.run script in
      lib = ref_
      || QCheck.Test.fail_reportf "library [%s] vs reference [%s]"
           (String.concat "; " lib) (String.concat "; " ref_))

(* An [if] nested [n] deep whose every level reads variables declared at
   the top, in the shape of the deep-nest fixture in test/ir_identity.t. *)
let if_nest n =
  let b = Buffer.create (n * 80) in
  Buffer.add_string b
    "int main(void) {\n  long *h = (long *)malloc(8 * sizeof(long));\n  long x = 7;\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "  if (x %% 97 != %d) { x = (x * 3 + h[%d]) %% 100003;\n"
      ((i mod 89) + 1) (i mod 8)
  done;
  for i = n - 1 downto 0 do
    Printf.bprintf b "  } else { h[%d] = x + %d; }\n" (i mod 8) i
  done;
  Buffer.add_string b "  return (int)x;\n}\n";
  Buffer.contents b

let test_nest_scales_linearly () =
  let make n =
    let ast = Parser.parse_program (if_nest n) in
    fun () () ->
      ignore (Typecheck.check_program ast);
      ignore (Ir.Compile.compile_program ast)
  in
  let ratio, small, large = Util.growth make 250 2000 in
  (* 8x the depth: linear is 8x; a lookup that walks the enclosing scopes
     makes it quadratic, 64x *)
  if ratio > 32. then
    Alcotest.failf "an if nest 2000 deep took %.1fx as long as 250 (%.2f ms vs %.2f ms)"
      ratio (large *. 1e3) (small *. 1e3)

let suite =
  [
    Alcotest.test_case "arith conversions" `Quick test_arith_conversions;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arith;
    Alcotest.test_case "array decay" `Quick test_array_decay;
    Alcotest.test_case "struct access" `Quick test_struct_access;
    Alcotest.test_case "deref and addr" `Quick test_deref_addr;
    Alcotest.test_case "calls" `Quick test_calls;
    Alcotest.test_case "assignment" `Quick test_assignment_rules;
    Alcotest.test_case "returns" `Quick test_returns;
    Alcotest.test_case "scoping" `Quick test_scoping;
    Alcotest.test_case "incomplete types" `Quick test_incomplete_types;
    Alcotest.test_case "increment" `Quick test_increment;
    Alcotest.test_case "conditional" `Quick test_conditional;
    Alcotest.test_case "sizeof" `Quick test_sizeof;
    Alcotest.test_case "struct layout" `Quick test_struct_layouts;
    Alcotest.test_case "union layout" `Quick test_union_layout;
    Alcotest.test_case "contains_pointer" `Quick test_contains_pointer;
    Alcotest.test_case "workloads typecheck" `Quick test_workloads_typecheck;
    QCheck_alcotest.to_alcotest prop_symtab_matches_reference;
    Alcotest.test_case "scoped lookup: linear in nesting depth" `Quick
      test_nest_scales_linearly;
  ]
