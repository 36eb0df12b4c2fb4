//! The tree-walking interpreter — our stand-in for the instrumented
//! Franz Lisp interpreter of §3.3.1.
//!
//! It implements the "simple Lisp" of §4.3.4: the list primitives
//! (`car cdr cons rplaca rplacd`), `cond` and `prog` (with `go` and
//! `return`), predicates, integer arithmetic, logic, `setq`, `read` /
//! `write`, and `def`. Evaluation is dynamically scoped through any
//! [`Environment`] implementation.
//!
//! An [`EvalHook`] observes every list-primitive call (name, arguments,
//! result — in both s-expression form and exact cell identity), every
//! user-function entry/exit, and every `read`. The trace recorder in
//! `small-trace` plugs in here; this is the instrumentation point the
//! thesis added to Franz Lisp.

use crate::env::Environment;
use crate::value::{CellAllocator, Value};
use crate::vm::fixnums_fit;
use small_heap::FIXNUM;
use small_sexpr::{Atom, Interner, SExpr, Symbol};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Observer of interpreter activity (the tracing hook).
pub trait EvalHook {
    /// A list primitive was executed.
    fn primitive(&mut self, name: Symbol, args: &[Value], result: &Value) {
        let _ = (name, args, result);
    }
    /// A user-defined function was entered with `nargs` arguments.
    fn fn_enter(&mut self, name: Symbol, nargs: usize) {
        let _ = (name, nargs);
    }
    /// A user-defined function returned.
    fn fn_exit(&mut self, name: Symbol) {
        let _ = name;
    }
}

/// The no-op hook.
#[derive(Default, Clone, Copy)]
pub struct NoHook;
impl EvalHook for NoHook {}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LispError {
    /// Reference to a name with no current binding.
    Unbound(String),
    /// Call of something that is not a defined function.
    NotAFunction(String),
    /// Arity mismatch calling a user function.
    WrongArgCount {
        /// Function name.
        name: String,
        /// Declared parameter count.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// A primitive received an operand of the wrong type.
    TypeError {
        /// The primitive that rejected its operand.
        prim: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// Integer division by zero.
    DivideByZero,
    /// An integer literal or arithmetic result outside the fixnum range
    /// [`FIXNUM`].
    FixnumOverflow,
    /// `(go tag)` with no such label in the enclosing prog.
    NoSuchLabel(String),
    /// `go`/`return` outside a prog.
    NotInProg,
    /// `read` with an empty input queue.
    ReadEof,
    /// Recursion exceeded the configured depth limit.
    DepthLimit,
    /// Evaluation exceeded the configured step budget.
    StepBudget,
    /// Malformed special form.
    BadForm(String),
    // Internal control-flow signals (caught by prog).
    #[doc(hidden)]
    GoSignal(Symbol),
    #[doc(hidden)]
    ReturnSignal(Box<ValueCarrier>),
}

/// Wrapper so LispError can derive Eq while carrying a Value.
#[derive(Debug, Clone)]
pub struct ValueCarrier(pub Value);
impl PartialEq for ValueCarrier {
    fn eq(&self, _: &Self) -> bool {
        false
    }
}
impl Eq for ValueCarrier {}

impl fmt::Display for LispError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LispError::Unbound(n) => write!(f, "unbound variable {n}"),
            LispError::NotAFunction(n) => write!(f, "{n} is not a function"),
            LispError::WrongArgCount {
                name,
                expected,
                got,
            } => {
                write!(f, "{name} expects {expected} args, got {got}")
            }
            LispError::TypeError { prim, detail } => write!(f, "{prim}: {detail}"),
            LispError::DivideByZero => write!(f, "division by zero"),
            LispError::FixnumOverflow => write!(f, "fixnum overflow"),
            LispError::NoSuchLabel(l) => write!(f, "no label {l} in prog"),
            LispError::NotInProg => write!(f, "go/return outside prog"),
            LispError::ReadEof => write!(f, "read: input exhausted"),
            LispError::DepthLimit => write!(f, "recursion depth limit exceeded"),
            LispError::StepBudget => write!(f, "evaluation step budget exceeded"),
            LispError::BadForm(s) => write!(f, "malformed form: {s}"),
            LispError::GoSignal(_) | LispError::ReturnSignal(_) => {
                write!(f, "internal control-flow signal escaped")
            }
        }
    }
}

impl std::error::Error for LispError {}

struct FnDef {
    params: Vec<Symbol>,
    body: Vec<SExpr>,
}

/// Special-form and primitive symbols, interned once.
struct Syms {
    quote: Symbol,
    cond: Symbol,
    prog: Symbol,
    progn: Symbol,
    go: Symbol,
    ret: Symbol,
    setq: Symbol,
    def: Symbol,
    lambda: Symbol,
    and: Symbol,
    or: Symbol,
    t: Symbol,
    // primitives
    car: Symbol,
    cdr: Symbol,
    cons: Symbol,
    rplaca: Symbol,
    rplacd: Symbol,
    atom: Symbol,
    null: Symbol,
    not: Symbol,
    eq: Symbol,
    equal: Symbol,
    greaterp: Symbol,
    lessp: Symbol,
    add: Symbol,
    sub: Symbol,
    mul: Symbol,
    div: Symbol,
    rem: Symbol,
    read: Symbol,
    write: Symbol,
    hassoc: Symbol,
    hnth: Symbol,
}

impl Syms {
    fn new(i: &mut Interner) -> Self {
        Syms {
            quote: i.intern("quote"),
            cond: i.intern("cond"),
            prog: i.intern("prog"),
            progn: i.intern("progn"),
            go: i.intern("go"),
            ret: i.intern("return"),
            setq: i.intern("setq"),
            def: i.intern("def"),
            lambda: i.intern("lambda"),
            and: i.intern("and"),
            or: i.intern("or"),
            t: i.intern("t"),
            car: i.intern("car"),
            cdr: i.intern("cdr"),
            cons: i.intern("cons"),
            rplaca: i.intern("rplaca"),
            rplacd: i.intern("rplacd"),
            atom: i.intern("atom"),
            null: i.intern("null"),
            not: i.intern("not"),
            eq: i.intern("eq"),
            equal: i.intern("equal"),
            greaterp: i.intern("greaterp"),
            lessp: i.intern("lessp"),
            add: i.intern("add"),
            sub: i.intern("sub"),
            mul: i.intern("times"),
            div: i.intern("quotient"),
            rem: i.intern("rem"),
            read: i.intern("read"),
            write: i.intern("write"),
            hassoc: i.intern("hassoc"),
            hnth: i.intern("hnth"),
        }
    }
}

/// Interpreter execution statistics (feeds Table 5.1).
#[derive(Debug, Default, Clone, Copy)]
pub struct InterpStats {
    /// User-defined function calls.
    pub fn_calls: u64,
    /// Maximum dynamic call depth reached.
    pub max_depth: usize,
    /// List-primitive executions.
    pub primitives: u64,
    /// Total eval steps.
    pub steps: u64,
}

/// The interpreter.
pub struct Interp<E: Environment, H: EvalHook> {
    /// Symbol interner (shared with the reader).
    pub interner: Interner,
    env: E,
    /// The tracing hook.
    pub hook: H,
    /// Cell allocator (exposes cons counts).
    pub alloc: CellAllocator,
    fns: HashMap<Symbol, FnDef>,
    syms: Syms,
    /// Queue of s-expressions served to `(read …)`.
    pub input: VecDeque<SExpr>,
    /// Values written by `(write …)`.
    pub output: Vec<SExpr>,
    depth: usize,
    depth_limit: usize,
    steps_left: u64,
    stats: InterpStats,
    /// Aliases: alternate spellings → canonical primitive symbol.
    aliases: HashMap<Symbol, Symbol>,
}

impl<E: Environment, H: EvalHook> Interp<E, H> {
    /// Create an interpreter over `env` with tracing hook `hook`.
    pub fn new(mut interner: Interner, env: E, hook: H) -> Self {
        let syms = Syms::new(&mut interner);
        let mut aliases = HashMap::new();
        for (alias, canon) in [
            ("+", syms.add),
            ("-", syms.sub),
            ("*", syms.mul),
            ("/", syms.div),
            ("plus", syms.add),
            ("difference", syms.sub),
            (">", syms.greaterp),
            ("<", syms.lessp),
            ("=", syms.equal),
            ("nullp", syms.null),
            ("atomp", syms.atom),
            ("equalp", syms.equal),
            ("print", syms.write),
        ] {
            let a = interner.intern(alias);
            aliases.insert(a, canon);
        }
        Interp {
            interner,
            env,
            hook,
            alloc: CellAllocator::new(),
            fns: HashMap::new(),
            syms,
            input: VecDeque::new(),
            output: Vec::new(),
            depth: 0,
            depth_limit: 256,
            steps_left: u64::MAX,
            stats: InterpStats::default(),
            aliases,
        }
    }

    /// Limit total eval steps (for tests of runaway programs).
    pub fn set_step_budget(&mut self, steps: u64) {
        self.steps_left = steps;
    }

    /// Set the recursion depth limit (default 256, safe on a 2 MiB test
    /// thread in debug builds). Deep limits require a correspondingly
    /// large native stack — run the interpreter on a dedicated thread
    /// with a multi-megabyte stack if you raise this (each eval level
    /// costs roughly 4 KiB unoptimized).
    pub fn set_depth_limit(&mut self, limit: usize) {
        self.depth_limit = limit;
    }

    /// Execution statistics.
    pub fn stats(&self) -> InterpStats {
        self.stats
    }

    /// Access the environment (e.g. for its cost counters).
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Parse and run a whole program (sequence of top-level forms);
    /// returns the value of the last form.
    pub fn run_program(&mut self, src: &str) -> Result<Value, LispError> {
        let forms = small_sexpr::parse_all(src, &mut self.interner)
            .map_err(|e| LispError::BadForm(e.to_string()))?;
        let mut last = Value::Nil;
        for f in forms {
            last = self.eval(&f)?;
        }
        Ok(last)
    }

    /// Evaluate one expression.
    pub fn eval(&mut self, expr: &SExpr) -> Result<Value, LispError> {
        if self.steps_left == 0 {
            return Err(LispError::StepBudget);
        }
        self.steps_left -= 1;
        self.stats.steps += 1;
        match expr {
            SExpr::Nil => Ok(Value::Nil),
            SExpr::Atom(Atom::Int(i)) if !FIXNUM.contains(i) => Err(LispError::FixnumOverflow),
            SExpr::Atom(Atom::Int(i)) => Ok(Value::Int(*i)),
            SExpr::Atom(Atom::Sym(s)) => {
                if *s == self.syms.t {
                    return Ok(Value::Sym(*s));
                }
                self.env
                    .lookup(*s)
                    .ok_or_else(|| LispError::Unbound(self.interner.name(*s).to_owned()))
            }
            SExpr::Cons(c) => {
                let head = c
                    .0
                    .as_sym()
                    .ok_or_else(|| LispError::BadForm("call head must be a symbol".to_owned()))?;
                let head = *self.aliases.get(&head).unwrap_or(&head);
                let args = &c.1;
                self.eval_form(head, args)
            }
        }
    }

    /// The next `read` datum, refused if it holds a non-fixnum integer.
    fn read_input(&mut self) -> Result<SExpr, LispError> {
        let e = self.input.pop_front().ok_or(LispError::ReadEof)?;
        if fixnums_fit(&e) {
            Ok(e)
        } else {
            Err(LispError::FixnumOverflow)
        }
    }

    fn eval_form(&mut self, head: Symbol, args: &SExpr) -> Result<Value, LispError> {
        let s = &self.syms;
        // Special forms first.
        if head == s.quote {
            let q = args
                .car()
                .ok_or_else(|| LispError::BadForm("quote".into()))?;
            if !fixnums_fit(&q) {
                return Err(LispError::FixnumOverflow);
            }
            return Ok(self.alloc.from_sexpr(&q));
        }
        if head == s.cond {
            return self.eval_cond(args);
        }
        if head == s.progn {
            return self.eval_progn(args);
        }
        if head == s.prog {
            return self.eval_prog(args);
        }
        if head == s.go {
            let tag = args
                .car()
                .and_then(|t| t.as_sym())
                .ok_or_else(|| LispError::BadForm("go".into()))?;
            return Err(LispError::GoSignal(tag));
        }
        if head == s.ret {
            let v = match args.car() {
                Some(e) if !e.is_nil() => self.eval(&e)?,
                _ => Value::Nil,
            };
            return Err(LispError::ReturnSignal(Box::new(ValueCarrier(v))));
        }
        if head == s.setq {
            return self.eval_setq(args);
        }
        if head == s.def {
            return self.eval_def(args);
        }
        if head == s.and {
            let mut last = Value::Sym(self.syms.t);
            for e in args.iter() {
                last = self.eval(e)?;
                if last.is_nil() {
                    return Ok(Value::Nil);
                }
            }
            return Ok(last);
        }
        if head == s.or {
            for e in args.iter() {
                let v = self.eval(e)?;
                if v.is_true() {
                    return Ok(v);
                }
            }
            return Ok(Value::Nil);
        }

        if head == s.read {
            // `(read)` or `(read var)` — the variable is a target, not an
            // evaluated argument (matches the compiler and Figure 4.15).
            let read_sym = s.read;
            let e = self.read_input()?;
            let v = self.alloc.from_sexpr(&e);
            if let Some(var) = args.car().and_then(|a| a.as_sym()) {
                self.env.set(var, v.clone());
            }
            self.stats.primitives += 1;
            self.hook.primitive(read_sym, &[], &v);
            return Ok(v);
        }

        // Evaluate arguments left to right (sequential Lisp semantics,
        // §6.2.1.1 — Multilisp relaxes this, the interpreter does not).
        let mut argv = Vec::new();
        for e in args.iter() {
            argv.push(self.eval(e)?);
        }

        // Primitives.
        if let Some(v) = self.try_primitive(head, &argv)? {
            return Ok(v);
        }

        // User-defined function.
        self.apply_user(head, argv)
    }

    fn eval_cond(&mut self, mut legs: &SExpr) -> Result<Value, LispError> {
        loop {
            let Some(leg) = legs.car() else {
                return Ok(Value::Nil);
            };
            if leg.is_nil() {
                return Ok(Value::Nil);
            }
            let test = leg
                .car()
                .ok_or_else(|| LispError::BadForm("cond leg".into()))?;
            let tv = self.eval(&test)?;
            if tv.is_true() {
                // Evaluate the leg body; value of last form (or the test
                // value if the leg has no body).
                let mut body = leg.cdr().unwrap_or(SExpr::Nil);
                let mut out = tv;
                while let Some(form) = body.car() {
                    if body.is_nil() {
                        break;
                    }
                    out = self.eval(&form)?;
                    body = body.cdr().unwrap_or(SExpr::Nil);
                }
                return Ok(out);
            }
            legs = match legs {
                SExpr::Cons(c) => &c.1,
                _ => return Ok(Value::Nil),
            };
        }
    }

    fn eval_progn(&mut self, body: &SExpr) -> Result<Value, LispError> {
        let mut out = Value::Nil;
        for form in body.iter() {
            out = self.eval(form)?;
        }
        Ok(out)
    }

    fn eval_prog(&mut self, args: &SExpr) -> Result<Value, LispError> {
        let locals = args
            .car()
            .ok_or_else(|| LispError::BadForm("prog locals".into()))?;
        let body: Vec<SExpr> = args.cdr().unwrap_or(SExpr::Nil).iter().cloned().collect();
        self.env.push_frame();
        for l in locals.iter() {
            if let Some(sym) = l.as_sym() {
                self.env.bind(sym, Value::Nil);
            }
        }
        let result = self.run_prog_body(&body);
        self.env.pop_frame();
        result
    }

    fn run_prog_body(&mut self, body: &[SExpr]) -> Result<Value, LispError> {
        let mut pc = 0usize;
        while pc < body.len() {
            let form = &body[pc];
            // Bare symbols are labels; skip them.
            if form.as_sym().is_some() {
                pc += 1;
                continue;
            }
            match self.eval(form) {
                Ok(_) => pc += 1,
                Err(LispError::GoSignal(tag)) => {
                    let target = body.iter().position(|f| f.as_sym() == Some(tag));
                    match target {
                        Some(i) => pc = i + 1,
                        None => {
                            // Propagate: maybe an outer prog has the label.
                            return Err(LispError::GoSignal(tag));
                        }
                    }
                }
                Err(LispError::ReturnSignal(v)) => return Ok(v.0),
                Err(e) => return Err(e),
            }
        }
        Ok(Value::Nil)
    }

    fn eval_setq(&mut self, args: &SExpr) -> Result<Value, LispError> {
        let name = args
            .car()
            .and_then(|n| n.as_sym())
            .ok_or_else(|| LispError::BadForm("setq name".into()))?;
        let vexpr = args
            .cdr()
            .and_then(|d| d.car())
            .ok_or_else(|| LispError::BadForm("setq value".into()))?;
        let v = self.eval(&vexpr)?;
        Ok(self.env.set(name, v))
    }

    fn eval_def(&mut self, args: &SExpr) -> Result<Value, LispError> {
        // (def name (lambda (params) body...))
        let name = args
            .car()
            .and_then(|n| n.as_sym())
            .ok_or_else(|| LispError::BadForm("def name".into()))?;
        let lam = args
            .cdr()
            .and_then(|d| d.car())
            .ok_or_else(|| LispError::BadForm("def lambda".into()))?;
        let head = lam.car().and_then(|h| h.as_sym());
        if head != Some(self.syms.lambda) {
            return Err(LispError::BadForm("def body must be a lambda".into()));
        }
        let params_expr = lam
            .cdr()
            .and_then(|d| d.car())
            .ok_or_else(|| LispError::BadForm("lambda params".into()))?;
        let params: Vec<Symbol> = params_expr.iter().filter_map(|p| p.as_sym()).collect();
        let body: Vec<SExpr> = lam
            .cdr()
            .and_then(|d| d.cdr())
            .unwrap_or(SExpr::Nil)
            .iter()
            .cloned()
            .collect();
        self.fns.insert(name, FnDef { params, body });
        Ok(Value::Sym(name))
    }

    fn apply_user(&mut self, name: Symbol, argv: Vec<Value>) -> Result<Value, LispError> {
        let Some(def) = self.fns.get(&name) else {
            return Err(LispError::NotAFunction(self.interner.name(name).to_owned()));
        };
        if def.params.len() != argv.len() {
            return Err(LispError::WrongArgCount {
                name: self.interner.name(name).to_owned(),
                expected: def.params.len(),
                got: argv.len(),
            });
        }
        if self.depth >= self.depth_limit {
            return Err(LispError::DepthLimit);
        }
        let params = def.params.clone();
        let body = def.body.clone();

        self.stats.fn_calls += 1;
        self.depth += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.depth);
        self.hook.fn_enter(name, argv.len());

        self.env.push_frame();
        for (p, v) in params.iter().zip(argv) {
            self.env.bind(*p, v);
        }
        let mut result = Ok(Value::Nil);
        for form in &body {
            result = self.eval(form);
            if result.is_err() {
                break;
            }
        }
        // `return` at function-body top level returns from the function.
        if let Err(LispError::ReturnSignal(v)) = result {
            result = Ok(v.0);
        }
        self.env.pop_frame();
        self.depth -= 1;
        self.hook.fn_exit(name);
        result
    }

    fn try_primitive(&mut self, name: Symbol, argv: &[Value]) -> Result<Option<Value>, LispError> {
        let s = &self.syms;
        let traced = name == s.car
            || name == s.cdr
            || name == s.cons
            || name == s.rplaca
            || name == s.rplacd
            || name == s.read;
        let result: Value = if name == s.car {
            self.prim_car(argv)?
        } else if name == s.cdr {
            self.prim_cdr(argv)?
        } else if name == s.cons {
            let [a, b] = two(argv, "cons")?;
            self.alloc.cons(a.clone(), b.clone())
        } else if name == s.rplaca {
            let [a, b] = two(argv, "rplaca")?;
            match a {
                Value::Cons(c) => {
                    *c.car.borrow_mut() = b.clone();
                    a.clone()
                }
                _ => {
                    return Err(LispError::TypeError {
                        prim: "rplaca",
                        detail: "first argument must be a list".into(),
                    })
                }
            }
        } else if name == s.rplacd {
            let [a, b] = two(argv, "rplacd")?;
            match a {
                Value::Cons(c) => {
                    *c.cdr.borrow_mut() = b.clone();
                    a.clone()
                }
                _ => {
                    return Err(LispError::TypeError {
                        prim: "rplacd",
                        detail: "first argument must be a list".into(),
                    })
                }
            }
        } else if name == s.atom {
            let [a] = one(argv, "atom")?;
            self.bool_val(a.is_atom())
        } else if name == s.null || name == s.not {
            let [a] = one(argv, "null")?;
            self.bool_val(a.is_nil())
        } else if name == s.eq {
            let [a, b] = two(argv, "eq")?;
            self.bool_val(a.eq_identity(b))
        } else if name == s.equal {
            let [a, b] = two(argv, "equal")?;
            self.bool_val(a.eq_structural(b))
        } else if name == s.greaterp {
            let [a, b] = two(argv, "greaterp")?;
            let (x, y) = ints(a, b, "greaterp")?;
            self.bool_val(x > y)
        } else if name == s.lessp {
            let [a, b] = two(argv, "lessp")?;
            let (x, y) = ints(a, b, "lessp")?;
            self.bool_val(x < y)
        } else if name == s.add {
            let mut acc = 0i64;
            for v in argv {
                acc = fixnum(acc.checked_add(int(v, "add")?))?;
            }
            Value::Int(acc)
        } else if name == s.sub {
            match argv {
                [a] => Value::Int(fixnum(int(a, "sub")?.checked_neg())?),
                [a, rest @ ..] => {
                    let mut acc = int(a, "sub")?;
                    for v in rest {
                        acc = fixnum(acc.checked_sub(int(v, "sub")?))?;
                    }
                    Value::Int(acc)
                }
                [] => Value::Int(0),
            }
        } else if name == s.mul {
            let mut acc = 1i64;
            for v in argv {
                acc = fixnum(acc.checked_mul(int(v, "times")?))?;
            }
            Value::Int(acc)
        } else if name == s.div {
            let [a, b] = two(argv, "quotient")?;
            let (x, y) = ints(a, b, "quotient")?;
            if y == 0 {
                return Err(LispError::DivideByZero);
            }
            Value::Int(fixnum(x.checked_div(y))?)
        } else if name == s.rem {
            let [a, b] = two(argv, "rem")?;
            let (x, y) = ints(a, b, "rem")?;
            if y == 0 {
                return Err(LispError::DivideByZero);
            }
            Value::Int(x % y)
        } else if name == s.hassoc {
            // Hunk-style direct access (untraced): stands in for Franz
            // Lisp hunks, the direct-access structures PEARL used
            // (§3.3.2.3). The scan happens inside the "hardware", so no
            // car/cdr primitive traffic reaches the trace.
            let [k, al] = two(argv, "hassoc")?;
            let mut cur = al.clone();
            loop {
                match cur {
                    Value::Cons(c) => {
                        let head = c.car.borrow().clone();
                        if let Value::Cons(pair) = &head {
                            if pair.car.borrow().eq_structural(k) {
                                break head;
                            }
                        }
                        let next = c.cdr.borrow().clone();
                        cur = next;
                    }
                    _ => break Value::Nil,
                }
            }
        } else if name == s.hnth {
            // Hunk field access by index (untraced).
            let [idx, l] = two(argv, "hnth")?;
            let mut k = int(idx, "hnth")?;
            let mut cur = l.clone();
            loop {
                match cur {
                    Value::Cons(c) => {
                        if k == 0 {
                            break c.car.borrow().clone();
                        }
                        k -= 1;
                        let next = c.cdr.borrow().clone();
                        cur = next;
                    }
                    _ => break Value::Nil,
                }
            }
        } else if name == s.read {
            let e = self.read_input()?;
            self.alloc.from_sexpr(&e)
        } else if name == s.write {
            let [a] = one(argv, "write")?;
            self.output.push(a.to_sexpr());
            a.clone()
        } else {
            return Ok(None);
        };
        if traced {
            self.stats.primitives += 1;
            self.hook.primitive(name, argv, &result);
        }
        Ok(Some(result))
    }

    fn prim_car(&mut self, argv: &[Value]) -> Result<Value, LispError> {
        let [a] = one(argv, "car")?;
        match a {
            Value::Cons(c) => Ok(c.car.borrow().clone()),
            Value::Nil => Ok(Value::Nil),
            _ => Err(LispError::TypeError {
                prim: "car",
                detail: "argument must be a list".into(),
            }),
        }
    }

    fn prim_cdr(&mut self, argv: &[Value]) -> Result<Value, LispError> {
        let [a] = one(argv, "cdr")?;
        match a {
            Value::Cons(c) => Ok(c.cdr.borrow().clone()),
            Value::Nil => Ok(Value::Nil),
            _ => Err(LispError::TypeError {
                prim: "cdr",
                detail: "argument must be a list".into(),
            }),
        }
    }

    fn bool_val(&self, b: bool) -> Value {
        if b {
            Value::Sym(self.syms.t)
        } else {
            Value::Nil
        }
    }
}

fn one<'a>(argv: &'a [Value], prim: &'static str) -> Result<[&'a Value; 1], LispError> {
    match argv {
        [a] => Ok([a]),
        _ => Err(LispError::TypeError {
            prim,
            detail: format!("expects 1 argument, got {}", argv.len()),
        }),
    }
}

fn two<'a>(argv: &'a [Value], prim: &'static str) -> Result<[&'a Value; 2], LispError> {
    match argv {
        [a, b] => Ok([a, b]),
        _ => Err(LispError::TypeError {
            prim,
            detail: format!("expects 2 arguments, got {}", argv.len()),
        }),
    }
}

/// An arithmetic result, if it exists and is a fixnum.
fn fixnum(r: Option<i64>) -> Result<i64, LispError> {
    r.filter(|i| FIXNUM.contains(i))
        .ok_or(LispError::FixnumOverflow)
}

fn int(v: &Value, prim: &'static str) -> Result<i64, LispError> {
    match v {
        Value::Int(i) => Ok(*i),
        _ => Err(LispError::TypeError {
            prim,
            detail: "expects integers".into(),
        }),
    }
}

fn ints(a: &Value, b: &Value, prim: &'static str) -> Result<(i64, i64), LispError> {
    Ok((int(a, prim)?, int(b, prim)?))
}

/// The Lisp-level library functions (written in the interpreted Lisp so
/// that their list traffic shows up in traces, exactly as interpreted
/// library code did in the thesis's Franz Lisp runs).
pub const PRELUDE: &str = r#"
(def cadr (lambda (x) (car (cdr x))))
(def caddr (lambda (x) (car (cdr (cdr x)))))
(def cddr (lambda (x) (cdr (cdr x))))
(def caar (lambda (x) (car (car x))))
(def cdar (lambda (x) (cdr (car x))))
(def append (lambda (a b)
  (cond ((null a) b)
        (t (cons (car a) (append (cdr a) b))))))
(def reverse-onto (lambda (a acc)
  (cond ((null a) acc)
        (t (reverse-onto (cdr a) (cons (car a) acc))))))
(def reverse (lambda (a) (reverse-onto a nil)))
(def length (lambda (a)
  (cond ((null a) 0)
        (t (add 1 (length (cdr a)))))))
(def assoc (lambda (k al)
  (cond ((null al) nil)
        ((equal k (car (car al))) (car al))
        (t (assoc k (cdr al))))))
(def member (lambda (x l)
  (cond ((null l) nil)
        ((equal x (car l)) l)
        (t (member x (cdr l))))))
(def nth (lambda (n l)
  (cond ((null l) nil)
        ((equal n 0) (car l))
        (t (nth (sub n 1) (cdr l))))))
(def last (lambda (l)
  (cond ((null l) nil)
        ((null (cdr l)) l)
        (t (last (cdr l))))))
(def copy-list (lambda (l)
  (cond ((atom l) l)
        (t (cons (copy-list (car l)) (copy-list (cdr l)))))))
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::DeepEnv;
    use small_sexpr::print;

    fn interp() -> Interp<DeepEnv, NoHook> {
        let mut it = Interp::new(Interner::new(), DeepEnv::new(), NoHook);
        it.run_program(PRELUDE).expect("prelude");
        it
    }

    fn eval_str(it: &mut Interp<DeepEnv, NoHook>, src: &str) -> String {
        let v = it.run_program(src).expect(src);
        print(&v.to_sexpr(), &it.interner)
    }

    #[test]
    fn arithmetic_and_aliases() {
        let mut it = interp();
        assert_eq!(eval_str(&mut it, "(add 1 2 3)"), "6");
        assert_eq!(eval_str(&mut it, "(+ 1 2)"), "3");
        assert_eq!(eval_str(&mut it, "(- 10 3 2)"), "5");
        assert_eq!(eval_str(&mut it, "(* 3 4)"), "12");
        assert_eq!(eval_str(&mut it, "(/ 7 2)"), "3");
        assert_eq!(eval_str(&mut it, "(rem 7 2)"), "1");
    }

    #[test]
    fn list_primitives() {
        let mut it = interp();
        assert_eq!(eval_str(&mut it, "(car '(a b))"), "a");
        assert_eq!(eval_str(&mut it, "(cdr '(a b))"), "(b)");
        assert_eq!(eval_str(&mut it, "(cons 1 '(2 3))"), "(1 2 3)");
        assert_eq!(eval_str(&mut it, "(car nil)"), "nil");
    }

    #[test]
    fn destructive_update() {
        let mut it = interp();
        assert_eq!(
            eval_str(&mut it, "(progn (setq x '(1 2 3)) (rplaca x 9) x)"),
            "(9 2 3)"
        );
        assert_eq!(
            eval_str(&mut it, "(progn (setq y '(1 2 3)) (rplacd y '(8)) y)"),
            "(1 8)"
        );
    }

    #[test]
    fn factorial_from_figure_4_14() {
        let mut it = interp();
        let _ = it
            .run_program("(def fact (lambda (x) (cond ((equal x 0) 1) (t (* x (fact (- x 1)))))))")
            .unwrap();
        assert_eq!(eval_str(&mut it, "(fact 10)"), "3628800");
    }

    #[test]
    fn dynamic_scoping() {
        let mut it = interp();
        // g reads x dynamically from f's frame.
        it.run_program("(def g (lambda () x)) (def f (lambda (x) (g)))")
            .unwrap();
        assert_eq!(eval_str(&mut it, "(f 42)"), "42");
    }

    #[test]
    fn cond_returns_test_value_without_body() {
        let mut it = interp();
        assert_eq!(eval_str(&mut it, "(cond (nil 1) (5))"), "5");
        assert_eq!(eval_str(&mut it, "(cond (nil 1))"), "nil");
    }

    #[test]
    fn prog_go_return() {
        let mut it = interp();
        // Iterative sum via prog/go (Figure 4.15 style control flow).
        let src = "
        (def sum-to (lambda (n)
          (prog (acc i)
            (setq acc 0)
            (setq i 0)
            loop
            (cond ((greaterp i n) (return acc)))
            (setq acc (add acc i))
            (setq i (add i 1))
            (go loop))))
        (sum-to 10)";
        assert_eq!(eval_str(&mut it, src), "55");
    }

    #[test]
    fn prelude_library() {
        let mut it = interp();
        assert_eq!(eval_str(&mut it, "(append '(1 2) '(3 4))"), "(1 2 3 4)");
        assert_eq!(eval_str(&mut it, "(reverse '(1 2 3))"), "(3 2 1)");
        assert_eq!(eval_str(&mut it, "(length '(a b c))"), "3");
        assert_eq!(eval_str(&mut it, "(assoc 'b '((a 1) (b 2)))"), "(b 2)");
        assert_eq!(eval_str(&mut it, "(member 2 '(1 2 3))"), "(2 3)");
        assert_eq!(eval_str(&mut it, "(nth 1 '(a b c))"), "b");
    }

    #[test]
    fn read_and_write() {
        let mut it = interp();
        let e = small_sexpr::parse("(hello world)", &mut it.interner).unwrap();
        it.input.push_back(e);
        assert_eq!(
            eval_str(&mut it, "(progn (setq v (read)) (write v))"),
            "(hello world)"
        );
        assert_eq!(it.output.len(), 1);
    }

    #[test]
    fn errors() {
        let mut it = interp();
        assert!(matches!(
            it.run_program("undefined-var"),
            Err(LispError::Unbound(_))
        ));
        assert!(matches!(
            it.run_program("(no-such-fn 1)"),
            Err(LispError::NotAFunction(_))
        ));
        assert!(matches!(
            it.run_program("(car 5)"),
            Err(LispError::TypeError { .. })
        ));
        assert!(matches!(
            it.run_program("(/ 1 0)"),
            Err(LispError::DivideByZero)
        ));
        assert!(matches!(it.run_program("(read)"), Err(LispError::ReadEof)));
    }

    #[test]
    fn integers_outside_the_fixnum_range_are_errors() {
        let mut it = interp();
        for src in [
            "(times 1099511627776 1048576)",
            "(add 1152921504606846975 1)",
            "(sub -1152921504606846976)",
            "(quotient -1152921504606846976 -1)",
            "1152921504606846976",
            "(quote (1 -1152921504606846977))",
        ] {
            assert!(
                matches!(it.run_program(src), Err(LispError::FixnumOverflow)),
                "{src}"
            );
        }
        assert_eq!(
            eval_str(&mut it, "(add 1152921504606846975 0)"),
            "1152921504606846975"
        );
    }

    #[test]
    fn step_budget_stops_runaways() {
        let mut it = interp();
        it.run_program("(def loop-forever (lambda () (loop-forever)))")
            .unwrap();
        it.set_step_budget(10_000);
        assert!(matches!(
            it.run_program("(loop-forever)"),
            Err(LispError::StepBudget) | Err(LispError::DepthLimit)
        ));
    }

    #[test]
    fn eq_vs_equal() {
        let mut it = interp();
        assert_eq!(eval_str(&mut it, "(equal '(1 2) '(1 2))"), "t");
        assert_eq!(eval_str(&mut it, "(eq '(1 2) '(1 2))"), "nil");
        assert_eq!(eval_str(&mut it, "(progn (setq a '(1 2)) (eq a a))"), "t");
    }

    #[test]
    fn interpreter_runs_identically_on_all_environments() {
        // The environment implementation is a performance choice, not a
        // semantic one (§2.3.2): the same program yields the same value
        // and output under deep, shallow, and value-cached binding.
        fn run<E: crate::env::Environment>(env: E) -> (String, Vec<String>) {
            let mut it = Interp::new(Interner::new(), env, NoHook);
            it.run_program(PRELUDE).unwrap();
            let src = "
            (def tally (lambda (l acc)
              (cond ((null l) acc)
                    (t (progn
                         (setq total (add total (car l)))
                         (tally (cdr l) (cons (times 2 (car l)) acc)))))))
            (setq total 0)
            (write (tally '(1 2 3 4 5) nil))
            (write total)
            total";
            let v = it.run_program(src).unwrap();
            let out = it.output.iter().map(|e| print(e, &it.interner)).collect();
            (print(&v.to_sexpr(), &it.interner), out)
        }
        let deep = run(crate::env::DeepEnv::new());
        let shallow = run(crate::env::ShallowEnv::new());
        let cached = run(crate::env::ValueCacheEnv::new(8));
        assert_eq!(deep, shallow);
        assert_eq!(deep, cached);
        assert_eq!(deep.0, "15");
        assert_eq!(deep.1, vec!["(10 8 6 4 2)", "15"]);
    }

    #[test]
    fn stats_track_calls_and_depth() {
        let mut it = interp();
        it.run_program("(def down (lambda (n) (cond ((equal n 0) 0) (t (down (- n 1))))))")
            .unwrap();
        it.run_program("(down 7)").unwrap();
        assert_eq!(it.stats().fn_calls, 8);
        assert_eq!(it.stats().max_depth, 8);
    }
}
