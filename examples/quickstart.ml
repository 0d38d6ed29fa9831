(* Quickstart: the whole pipeline on a small program.

   Run with:  dune exec examples/quickstart.exe

   1. parse and type-check a C program;
   2. annotate it for GC-safety (KEEP_LIVE) and for checking (GC_same_obj);
   3. compile, optimize and run all build configurations on the VM;
   4. show the paper's overhead story on this one program. *)

let source =
  {|
struct point { long x; long y; };

struct point *make_point(long x, long y) {
  struct point *p = (struct point *)malloc(sizeof(struct point));
  p->x = x;
  p->y = y;
  return p;
}

long dot(struct point *a, struct point *b) {
  return a->x * b->x + a->y * b->y;
}

int main(void) {
  long total = 0;
  long i;
  for (i = 0; i < 2000; i++) {
    struct point *a = make_point(i, i + 1);
    struct point *b = make_point(i + 2, i + 3);
    total += dot(a, b);
  }
  printf("total=%ld\n", total);
  return 0;
}
|}

let () =
  (* step 1: the preprocessor's front half *)
  let ast = Csyntax.Parser.parse_program source in
  ignore (Csyntax.Typecheck.check_program ast);
  print_endline "=== GC-safe annotation (KEEP_LIVE) ===";
  let safe = Gcsafe.Annotate.run ~opts:(Gcsafe.Mode.default Gcsafe.Mode.Safe) ast in
  let dot_fn =
    List.find_map
      (function
        | Csyntax.Ast.Gfunc f when f.Csyntax.Ast.f_name = "dot" -> Some f
        | _ -> None)
      safe.Gcsafe.Annotate.program.Csyntax.Ast.prog_globals
  in
  (match dot_fn with
  | Some f ->
      Format.printf "long dot(...) body:@.%s@.@."
        (Csyntax.Pretty.stmt_to_string f.Csyntax.Ast.f_body)
  | None -> ());
  Printf.printf "(%d annotations inserted in the whole program)\n\n"
    safe.Gcsafe.Annotate.keep_live_count;

  (* step 2: all build configurations, compiled and executed *)
  print_endline "=== all build configurations on the sparc10 model ===";
  let base_cycles = ref 0 in
  List.iter
    (fun config ->
      let b = Harness.Build.compile config source in
      match Harness.Measure.exec (Harness.Request.make ~config source) b with
      | Harness.Measure.Ran r ->
          if config = Harness.Build.Base then base_cycles := r.Harness.Measure.o_cycles;
          Printf.printf "  %-14s %9d cycles  %5d instrs of code  %+6.1f%%  %s"
            (Harness.Build.config_name config)
            r.Harness.Measure.o_cycles r.Harness.Measure.o_size
            (100.0
            *. float_of_int (r.Harness.Measure.o_cycles - !base_cycles)
            /. float_of_int !base_cycles)
            r.Harness.Measure.o_output
      | o -> Printf.printf "  %-14s %s\n"
            (Harness.Build.config_name config) (Harness.Measure.describe o))
    Harness.Build.all_configs;

  (* step 2b: the paper's own output discipline — patch the original text *)
  print_endline "\n=== patch-mode emission (original text preserved) ===";
  Gcsafe.Patch_mode.emit ~source ~original:ast safe.Gcsafe.Annotate.program
  |> String.split_on_char '\n'
  |> List.filteri (fun i _ -> i >= 9 && i <= 13)
  |> List.iter (Printf.printf "  %s\n");

  (* step 3: the collector did real work *)
  print_endline "\n=== collector statistics (base build) ===";
  let b = Harness.Build.compile Harness.Build.Base source in
  let config =
    {
      (Machine.Vm.default_config ()) with
      Machine.Vm.vm_heap =
        {
          Gcheap.Heap.default_config with
          Gcheap.Heap.gc_threshold = 32 * 1024;
        };
    }
  in
  let r = Machine.Vm.run ~config b.Harness.Build.b_ir in
  Format.printf "  %a@." Gcheap.Heap.pp_stats r.Machine.Vm.r_heap;
  Printf.printf "  collections: %d\n" r.Machine.Vm.r_gc_count
