(** The annotation algorithm ("An Algorithm" + "Optimizations" 1-2 +
    "Debugging Applications").

    Every pointer-valued expression [e] occurring as the right side of an
    assignment, the argument of a dereferencing operation, or a function
    argument or result is replaced by [KEEP_LIVE(e, BASE(e))]; increment and
    decrement operators are treated as assignments.  Memory accesses through
    [\[\]], [->] and [.] are treated in their [*&(...)] normal form: the
    computed address is the dereference argument, so the whole address
    expression gets one KEEP_LIVE with the BASEADDR base — "we essentially
    treat pointer offset calculations as pointer arithmetic".

    In [Checked] mode the same insertion points receive calls to
    [GC_same_obj] / [GC_pre_incr] / [GC_post_incr] instead, exactly as the
    paper's debugging mode. *)

open Csyntax

exception Unnormalized of string * Loc.t
(** raised when BASE is queried on a generating expression, i.e. the input
    was not run through {!Normalize} *)

(** The insertion rule a site belongs to, for the stats breakdown. *)
type rule =
  | R_value  (** assignment right sides, call arguments, returns *)
  | R_access  (** the [*&(...)] wrap of a memory access's address *)
  | R_arith  (** pointer arithmetic updates: [++]/[--]/[op=] expansion *)
  | R_check  (** checked-mode extent/base checks (GC_check_range/base) *)

let rule_name = function
  | R_value -> "value"
  | R_access -> "access"
  | R_arith -> "arith"
  | R_check -> "check"

let all_rules = [ R_value; R_access; R_arith; R_check ]

(** Why a site was provably redundant and suppressed. *)
type reason =
  | S_flow_heap  (** flow-sensitive: not heapy at this program point *)
  | S_live  (** base live across the site, rooted by its own location *)

let reason_name = function
  | S_flow_heap -> "flow-heap"
  | S_live -> "flow-live"

let all_reasons = [ S_flow_heap; S_live ]

type suppression = {
  sup_func : string;  (** enclosing function *)
  sup_base : string;  (** the base variable the site would have kept live *)
  sup_rule : rule;  (** the rule that would have inserted it *)
  sup_reason : reason;  (** why it was proved redundant *)
  sup_loc : Loc.t;
}

type stats = {
  st_by_rule : (rule * int) list;  (** insertions per rule *)
  st_by_reason : (reason * int) list;  (** suppressions per analysis *)
  st_suppressions : suppression list;  (** every suppressed site, in order *)
  st_by_func : (string * int) list;
      (** insertions per function, in program order — what the heap
          profiler joins against alloc-site function names *)
}

let rule_index = function R_value -> 0 | R_access -> 1 | R_arith -> 2 | R_check -> 3

let reason_index = function S_flow_heap -> 0 | S_live -> 1

type ctx = {
  opts : Mode.options;
  tenv : Ctype.Env.t;
  temps : Temps.t;
  fname : string;  (** enclosing function, for the suppression log *)
  inserted : int array;  (** per-{!rule} insertion counts *)
  suppressed : int array;  (** per-{!reason} suppression counts *)
  mutable sups : suppression list;  (** reverse-order suppression log *)
  facts : Analysis.Summary.t option;
      (** the dataflow clients' result for the enclosing function, when
          [opts.analysis = A_flow] *)
  mutable cur_point : Analysis.Cfg.point option;
      (** the CFG point of the top-level expression being transformed *)
  mutable stmt_has_call : bool;
      (** does the statement being transformed perform any call?  Under
          optimization (4) — collections only at call sites — expressions
          that evaluate without calling cannot be interrupted by a
          collection, so their annotations are skipped *)
}

let mk desc ty =
  let e = Ast.mk_expr desc in
  e.Ast.ety <- Some ty;
  e

let void_ptr = Ctype.Ptr Ctype.Void

(* count one insertion under [rule] *)
let count ctx rule =
  ctx.inserted.(rule_index rule) <- ctx.inserted.(rule_index rule) + 1

let to_void e = mk (Ast.Cast (void_ptr, e)) void_ptr

(** The checked-mode runtime call [fn(args)], counted under [rule]; its
    [void *] result is cast to [ret] when given. *)
let check_call ctx rule ?ret fn args =
  count ctx rule;
  let call = mk (Ast.RuntimeCall (fn, args)) void_ptr in
  match ret with None -> call | Some t -> mk (Ast.Cast (t, call)) t

let suppress ctx ~rule ~reason ~base ~loc =
  ctx.suppressed.(reason_index reason) <-
    ctx.suppressed.(reason_index reason) + 1;
  ctx.sups <-
    {
      sup_func = ctx.fname;
      sup_base = base;
      sup_rule = rule;
      sup_reason = reason;
      sup_loc = loc;
    }
    :: ctx.sups

(* Can the site be proved redundant by the flow-sensitive clients at the
   current program point?  A base that cannot hold a heap pointer here
   needs no retention: the object it points into is stack or static
   storage, which the collector never reclaims.  A base that roots its
   object itself — live across the statement, only self-advanced by it,
   not reachable through memory — keeps the object alive through its own
   register or stack slot. *)
let suppression_reason ctx (base_var : string) : reason option =
  match ctx.facts with
  | None -> None
  | Some facts ->
      if not (Analysis.Summary.may_be_heap facts ctx.cur_point base_var) then
        Some S_flow_heap
      else if Analysis.Summary.live_across facts ctx.cur_point base_var then
        Some S_live
      else None

(** Emit the mode-appropriate KEEP_LIVE(e, base).  Under [calls_only],
    call-free statements need no annotation: no collection point can fall
    inside their evaluation. *)
let keep_live ctx ~rule (e : Ast.expr) (base_var : string) : Ast.expr =
  if ctx.opts.Mode.calls_only && not ctx.stmt_has_call then e
  else
  match suppression_reason ctx base_var with
  | Some reason ->
      suppress ctx ~rule ~reason ~base:base_var ~loc:e.Ast.eloc;
      e
  | None -> (
      let ty = Ast.rtyp e in
      let base = mk (Ast.Var base_var) ty in
      match ctx.opts.Mode.mode with
      | Mode.Safe ->
          count ctx rule;
          mk (Ast.KeepLive (e, Some base)) ty
      | Mode.Checked ->
          check_call ctx rule ~ret:ty "GC_same_obj" [ to_void e; to_void base ])

let is_array_typed (e : Ast.expr) =
  match e.Ast.ety with Some (Ctype.Array _) -> true | _ -> false

(** Does the value of [e] come straight from a generating expression or a
    KEEP_LIVE (through casts, commas and stores)?  Such values are opaque —
    call results behave as KEEP_LIVE values and loads were access-wrapped
    — so no further KEEP_LIVE is needed around them. *)
let rec generating_tail (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.Deref _ | Ast.Call (_, _) | Ast.RuntimeCall (_, _) | Ast.KeepLive _ ->
      true
  | Ast.Index (_, _) | Ast.Arrow (_, _) | Ast.Field (_, _) ->
      not (is_array_typed e)
  | Ast.Cast (_, x) | Ast.Comma (_, x) | Ast.Assign (_, x) ->
      generating_tail x
  | _ -> false

let is_pointer_lvalue (lv : Ast.expr) =
  Ctype.is_pointer (Ctype.decay (Ast.typ lv))

let addr_of (lv : Ast.expr) = mk (Ast.AddrOf lv) (Ctype.Ptr (Ast.typ lv))

(* [e1, e2, ..., en] as one right-nested comma expression of type [ty] *)
let rec seq ty = function
  | [] -> invalid_arg "Annotate.seq"
  | [ e ] -> e
  | e :: es -> mk (Ast.Comma (e, seq ty es)) ty

(* What GC_pre_incr/GC_post_incr add to a [ty] pointer for [op]= [delta]:
   the delta in bytes (a literal folds), negated for [-].  The negation
   stays a [Neg] node, as the printed [-n] parses back. *)
let scaled_delta ctx ty op (delta : Ast.expr) =
  let size =
    match Ctype.pointee ty with
    | Some Ctype.Void | None -> 1
    | Some t -> Ctype.size ctx.tenv t
  in
  let bytes =
    match delta.Ast.edesc with
    | Ast.IntLit n -> mk (Ast.IntLit (n * size)) Ctype.Long
    | _ when size = 1 -> delta
    | _ ->
        mk
          (Ast.Binop (Ast.Mul, delta, mk (Ast.IntLit size) Ctype.Long))
          Ctype.Long
  in
  if op = Ast.Sub then mk (Ast.Unop (Ast.Neg, bytes)) Ctype.Long else bytes

(* ------------------------------------------------------------------ *)
(* The transformation                                                  *)
(* ------------------------------------------------------------------ *)

let rec rv ctx ?(used = true) (e : Ast.expr) : Ast.expr =
  let ty = Ast.typ e in
  let remk desc = mk desc ty in
  match e.Ast.edesc with
  | Ast.IntLit _ | Ast.CharLit _ | Ast.StrLit _ | Ast.FloatLit _ | Ast.Var _
  | Ast.SizeofType _ | Ast.SizeofExpr _ ->
      e
  | Ast.Unop (op, a) -> remk (Ast.Unop (op, rv ctx a))
  | Ast.Binop (op, a, b) -> remk (Ast.Binop (op, rv ctx a, rv ctx b))
  | Ast.Assign (lv, rhs)
    when ctx.opts.Mode.mode = Mode.Checked
         && Ctype.is_aggregate (Ast.typ lv)
         && (match lv.Ast.edesc with Ast.Var _ -> false | _ -> true) ->
      (* whole-structure store through memory: the paper's "additional
         check" that the full extent lies within the object.  NB: the
         destination address expression is evaluated twice (check +
         store); side-effecting subscripts in aggregate stores are outside
         the checked subset. *)
      aggregate_checked_assign ctx e lv rhs
  | Ast.Assign (lv, rhs) ->
      let rhs' = wrap ctx rhs in
      let rhs' =
        (* Extensions-mode discipline: pointer stores to memory (heap or
           aggregate locations) must store base pointers only *)
        match lv.Ast.edesc with
        | Ast.Var _ -> rhs'
        | _ ->
            if
              ctx.opts.Mode.check_base_stores
              && ctx.opts.Mode.mode = Mode.Checked
              && Ast.is_pointer_valued rhs'
            then
              check_call ctx R_check ~ret:(Ast.rtyp rhs') "GC_check_base"
                [ to_void rhs' ]
            else rhs'
      in
      remk (Ast.Assign (store_target ctx lv, rhs'))
  | Ast.OpAssign (((Ast.Add | Ast.Sub) as op), lv, rhs)
    when is_pointer_lvalue lv ->
      update ctx ~used ~old:false op lv rhs
  | Ast.OpAssign (op, lv, rhs) ->
      remk (Ast.OpAssign (op, store_target ctx lv, rv ctx rhs))
  | Ast.Incr (k, lv) when is_pointer_lvalue lv ->
      let op, old =
        match k with
        | Ast.PreIncr -> (Ast.Add, false)
        | Ast.PostIncr -> (Ast.Add, true)
        | Ast.PreDecr -> (Ast.Sub, false)
        | Ast.PostDecr -> (Ast.Sub, true)
      in
      update ctx ~used ~old op lv (mk (Ast.IntLit 1) Ctype.Int)
  | Ast.Incr (k, lv) -> remk (Ast.Incr (k, store_target ctx lv))
  | Ast.Deref a -> remk (Ast.Deref (wrap ctx a))
  | Ast.Index (_, _) | Ast.Arrow (_, _) | Ast.Field (_, _) ->
      if is_array_typed e then chain ctx e else access ctx e
  | Ast.AddrOf lv -> remk (Ast.AddrOf (chain ctx lv))
  | Ast.Call (f, args) -> remk (Ast.Call (f, List.map (wrap ctx) args))
  | Ast.Cast (cty, a) -> remk (Ast.Cast (cty, rv ctx a))
  | Ast.Cond (c, a, b) -> remk (Ast.Cond (rv ctx c, rv ctx a, rv ctx b))
  | Ast.Comma (a, b) ->
      remk (Ast.Comma (rv ctx ~used:false a, rv ctx ~used b))
  | Ast.KeepLive (_, _) | Ast.RuntimeCall (_, _) ->
      invalid_arg "Annotate: input already annotated"

(** [e] in a KEEP_LIVE position: assignment rhs, deref argument, call
    argument, or function result. *)
and wrap ctx (e : Ast.expr) : Ast.expr = wrap_t ctx e.Ast.eloc (rv ctx e)

and wrap_t ctx loc (e : Ast.expr) : Ast.expr =
  if not (Ast.is_pointer_valued e) then e
  else if ctx.opts.Mode.suppress_copies && Base_rules.is_copy e then e
  else
    match e.Ast.edesc with
    | Ast.Cond (c, a, b) ->
        (* distribute into the branches so each value is generated by a
           KEEP_LIVE *)
        mk (Ast.Cond (c, wrap_t ctx loc a, wrap_t ctx loc b)) (Ast.typ e)
    | Ast.Comma (a, b) ->
        mk (Ast.Comma (a, wrap_t ctx loc b)) (Ast.typ e)
    | _ when generating_tail e -> e
    | _ -> (
        match Base_rules.base e with
        | Base_rules.Var b -> keep_live ctx ~rule:R_value e b
        | Base_rules.Nil -> e
        | Base_rules.Unnamed ->
            raise
              (Unnormalized
                 (Format.asprintf "no base for %a" Pretty.pp_expr e, loc)))

(** [&lv] of a transformed lvalue chain, kept live by its BASEADDR: the
    address of the [*&(...)] normal form.  [None] when BASEADDR is NIL. *)
and kept_addr ctx (lv : Ast.expr) : Ast.expr option =
  match Base_rules.baseaddr lv with
  | Base_rules.Var b -> Some (keep_live ctx ~rule:R_access (addr_of lv) b)
  | Base_rules.Nil -> None
  | Base_rules.Unnamed ->
      raise
        (Unnormalized
           ( Format.asprintf "no base address for %a" Pretty.pp_expr lv,
             lv.Ast.eloc ))

(** A scalar access through [\[\]] / [->] / [.]: wrap the whole address
    computation once, in its [*&(...)] normal form. *)
and access ctx (e : Ast.expr) : Ast.expr =
  let e' = chain ctx e in
  match kept_addr ctx e' with
  | Some addr -> mk (Ast.Deref addr) (Ast.typ e)
  | None -> e'

(** Transform the components of an lvalue chain without wrapping the chain
    itself (a single wrap at the outermost access covers it). *)
and chain ctx (e : Ast.expr) : Ast.expr =
  let ty = Ast.typ e in
  let remk desc = mk desc ty in
  match e.Ast.edesc with
  | Ast.Var _ -> e
  | Ast.Deref a -> remk (Ast.Deref (rv ctx a))
  | Ast.Index (a, i) ->
      let a' = if is_array_typed a then chain ctx a else rv ctx a in
      remk (Ast.Index (a', rv ctx i))
  | Ast.Arrow (p, f) -> remk (Ast.Arrow (rv ctx p, f))
  | Ast.Field (b, f) -> remk (Ast.Field (chain ctx b, f))
  | Ast.Cast (cty, b) -> remk (Ast.Cast (cty, chain ctx b))
  | _ -> rv ctx e

(** The target of a store.  Stores are dereferences too, so the computed
    address gets the same wrap as a load's. *)
and store_target ctx (lv : Ast.expr) : Ast.expr =
  match lv.Ast.edesc with Ast.Var _ -> lv | _ -> rv ctx lv

and aggregate_checked_assign ctx e lv rhs : Ast.expr =
  let ty = Ast.typ e in
  let size = Ctype.size ctx.tenv (Ast.typ lv) in
  let lv' = chain ctx lv in
  let check_of target =
    check_call ctx R_check "GC_check_range"
      [ to_void (addr_of target); mk (Ast.IntLit size) Ctype.Long ]
  in
  let checks = [ check_of lv' ] in
  let rhs' = chain ctx rhs in
  let checks =
    match rhs.Ast.edesc with
    | Ast.Var _ -> checks (* a whole local/global struct: not heap *)
    | _ -> check_of rhs' :: checks
  in
  let assign = mk (Ast.Assign (lv', rhs')) ty in
  List.fold_left
    (fun acc check -> mk (Ast.Comma (check, acc)) ty)
    assign checks

(** The pointer update [lv op= delta], [op] being [+] or [-] ([++] and
    [--] update by 1).  Its value is the new value of [lv], or the old
    one when [old].  Safe mode keeps the updated pointer live by the
    value it was computed from; that value is read into a temporary
    unless [lv] is a variable whose old value is not used — the paper's
    optimization (2), which leaves such a variable in its register:

    {v
      x = KEEP_LIVE(x op d, x)
      (t = x, x = KEEP_LIVE(t op d, t), t)
      (t1 = KEEP_LIVE(&lv, BASEADDR(lv)), t2 = *t1,
       *t1 = KEEP_LIVE(t2 op d, t2)[, t2])
    v}

    Checked mode passes [&lv] (kept the same way) and the delta in bytes
    to GC_pre_incr, or GC_post_incr when [old], which check the new value
    and perform the update. *)
and update ctx ~used ~old op lv delta : Ast.expr =
  let ty = Ctype.decay (Ast.typ lv) in
  let lv' = chain ctx lv in
  let addr =
    match kept_addr ctx lv' with Some a -> a | None -> addr_of lv'
  in
  let delta = rv ctx delta in
  match ctx.opts.Mode.mode with
  | Mode.Checked ->
      check_call ctx R_arith ~ret:ty
        (if old then "GC_post_incr" else "GC_pre_incr")
        [ addr; scaled_delta ctx ty op delta ]
  | Mode.Safe ->
      let old = old && used in
      let var t vty = mk (Ast.Var t) vty in
      let assign l r = mk (Ast.Assign (l, r)) (Ast.typ l) in
      (* the place updated: [lv] itself, or [*t1] *)
      let binds, place =
        match lv'.Ast.edesc with
        | Ast.Var _ -> ([], lv')
        | _ ->
            let pty = Ctype.Ptr ty in
            let t1 = var (Temps.fresh ctx.temps pty) pty in
            ([ assign t1 addr ], mk (Ast.Deref t1) ty)
      in
      (* the variable holding the value updated: KEEP_LIVE's base *)
      let binds, cur =
        match lv'.Ast.edesc with
        | Ast.Var x when not old -> (binds, x)
        | _ ->
            let t2 = Temps.fresh ctx.temps ty in
            (binds @ [ assign (var t2 ty) place ], t2)
      in
      let arith = mk (Ast.Binop (op, var cur ty, delta)) ty in
      let store = assign place (keep_live ctx ~rule:R_arith arith cur) in
      seq ty (binds @ (store :: (if old then [ var cur ty ] else [])))

(* ------------------------------------------------------------------ *)
(* Statements and program                                              *)
(* ------------------------------------------------------------------ *)

(* does this expression perform any call? (used by optimization 4) *)
let expr_has_call (e : Ast.expr) =
  Ast.fold_expr
    (fun acc x ->
      acc
      ||
      match x.Ast.edesc with
      | Ast.Call (_, _) | Ast.RuntimeCall (_, _) -> true
      | _ -> false)
    false e

let rec ann_stmt ctx (s : Ast.stmt) : Ast.stmt =
  let remk sdesc = Ast.mk_stmt ~loc:s.Ast.sloc sdesc in
  (* per-expression call flag: the KEEP_LIVE hazard window lies within one
     expression evaluation; values that outlive the statement land in
     variables, which are roots *)
  let with_flag e f =
    ctx.stmt_has_call <- expr_has_call e;
    (* the dataflow clients answer per program point; top-level
       expressions keep their physical identity from CFG construction to
       here, so the lookup pins the point for every nested site *)
    ctx.cur_point <-
      (match ctx.facts with
      | Some facts -> Analysis.Summary.point_of facts e
      | None -> None);
    let r = f e in
    ctx.stmt_has_call <- true;
    ctx.cur_point <- None;
    r
  in
  match s.Ast.sdesc with
  | Ast.Sexpr e -> remk (Ast.Sexpr (with_flag e (rv ctx ~used:false)))
  | Ast.Sdecl d ->
      (* an initializer is the right side of an assignment *)
      remk
        (Ast.Sdecl
           {
             d with
             Ast.d_init =
               Option.map (fun e -> with_flag e (wrap ctx)) d.Ast.d_init;
           })
  | Ast.Sif (c, a, b) ->
      remk
        (Ast.Sif
           ( with_flag c (rv ctx ~used:true),
             ann_stmt ctx a,
             Option.map (ann_stmt ctx) b ))
  | Ast.Swhile (c, b) ->
      remk (Ast.Swhile (with_flag c (rv ctx ~used:true), ann_stmt ctx b))
  | Ast.Sdowhile (b, c) ->
      remk (Ast.Sdowhile (ann_stmt ctx b, with_flag c (rv ctx ~used:true)))
  | Ast.Sfor (i, c, st, b) ->
      remk
        (Ast.Sfor
           ( Option.map (fun e -> with_flag e (rv ctx ~used:false)) i,
             Option.map (fun e -> with_flag e (rv ctx ~used:true)) c,
             Option.map (fun e -> with_flag e (rv ctx ~used:false)) st,
             ann_stmt ctx b ))
  | Ast.Sreturn (Some e) ->
      (* function results are a KEEP_LIVE position *)
      remk (Ast.Sreturn (Some (with_flag e (wrap ctx))))
  | Ast.Sreturn None | Ast.Sbreak | Ast.Scontinue | Ast.Sempty -> s
  | Ast.Sblock ss -> remk (Ast.Sblock (List.map (ann_stmt ctx) ss))

type result = {
  program : Ast.program;
  keep_live_count : int;  (** number of KEEP_LIVE / check insertions *)
  stats : stats;  (** per-rule insertions and per-analysis suppressions *)
}

(** Annotate a type-annotated, {!Normalize}d program. *)
let annotate_program ?(opts = Mode.default Mode.Safe) (p : Ast.program) :
    result =
  let inserted = Array.make (List.length all_rules) 0 in
  let suppressed = Array.make (List.length all_reasons) 0 in
  let sups = ref [] in
  let by_func = ref [] in
  let global_names = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.Gvar d -> Hashtbl.replace global_names d.Ast.d_name ()
      | Ast.Gfunc _ | Ast.Gstruct _ | Ast.Gproto _ -> ())
    p.Ast.prog_globals;
  let is_global v = Hashtbl.mem global_names v in
  let temps_of = Temps.in_program p in
  let globals =
    List.map
      (function
        | Ast.Gfunc f ->
            let ctx =
              {
                opts;
                tenv = p.Ast.prog_env;
                temps = temps_of f;
                fname = f.Ast.f_name;
                inserted = Array.make (List.length all_rules) 0;
                suppressed = Array.make (List.length all_reasons) 0;
                sups = [];
                facts =
                  (match opts.Mode.analysis with
                  | Mode.A_none -> None
                  | Mode.A_flow ->
                      Some (Analysis.Summary.analyze ~global:is_global f));
                cur_point = None;
                stmt_has_call = true;
              }
            in
            let body = ann_stmt ctx f.Ast.f_body in
            Array.iteri (fun i n -> inserted.(i) <- inserted.(i) + n) ctx.inserted;
            Array.iteri
              (fun i n -> suppressed.(i) <- suppressed.(i) + n)
              ctx.suppressed;
            sups := ctx.sups @ !sups;
            by_func :=
              (f.Ast.f_name, Array.fold_left ( + ) 0 ctx.inserted) :: !by_func;
            Ast.Gfunc { f with Ast.f_body = Temps.splice_decls ctx.temps body }
        | (Ast.Gvar _ | Ast.Gstruct _ | Ast.Gproto _) as g -> g)
      p.Ast.prog_globals
  in
  let p' = { p with Ast.prog_globals = globals } in
  ignore (Typecheck.check_program p');
  {
    program = p';
    keep_live_count = Array.fold_left ( + ) 0 inserted;
    stats =
      {
        st_by_rule = List.map (fun r -> (r, inserted.(rule_index r))) all_rules;
        st_by_reason =
          List.map (fun r -> (r, suppressed.(reason_index r))) all_reasons;
        st_suppressions = List.rev !sups;
        st_by_func = List.rev !by_func;
      };
  }

(** The full preprocessor front half: type-check, normalize, annotate. *)
let run ?(opts = Mode.default Mode.Safe) (p : Ast.program) : result =
  ignore (Typecheck.check_program p);
  let p = Normalize.norm_program p in
  annotate_program ~opts p
