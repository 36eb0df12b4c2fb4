//! The stack-machine emulator (§4.3.4), generic over a list backend.
//!
//! The thesis's emulator "operated by tracing the state of three key
//! SMALL structures: the stack (control and environment), the LPT and
//! the heap". This VM owns the first — a combined control/binding stack,
//! deep-bound, exactly the §4.3.1 model — and delegates every list
//! operation to a [`ListBackend`]:
//!
//! * [`DirectBackend`] (here) runs lists straight against a two-pointer
//!   heap — the conventional-machine baseline;
//! * `small-core` provides the LP/LPT backend, so the *same compiled
//!   program* exercises the SMALL architecture.
//!
//! The backend's `retain`/`release` hooks fire when list values are
//! bound into / dropped from the environment — the points where the EP
//! sends reference-count traffic to the LP (§4.3.1, §5.3.3).

use crate::isa::{CodeAddr, Inst, Program};
use small_heap::controller::HeapError;
use small_heap::Tag;
use small_sexpr::{SExpr, Symbol};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A VM value: immediates plus a backend-defined list reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmValue<R> {
    /// nil.
    Nil,
    /// A fixnum.
    Int(i64),
    /// A symbol.
    Sym(Symbol),
    /// A list object handle (heap address, LPT identifier, …).
    List(R),
}

impl<R> VmValue<R> {
    /// Lisp truthiness.
    pub fn is_true(&self) -> bool {
        !matches!(self, VmValue::Nil)
    }

    /// Atom test (nil is an atom).
    pub fn is_atom(&self) -> bool {
        !matches!(self, VmValue::List(_))
    }
}

/// VM runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Reference to an unbound name.
    Unbound(String),
    /// FCall of an undefined function.
    NoSuchFunction(String),
    /// Operand of the wrong type.
    TypeError(&'static str),
    /// Integer division by zero.
    DivideByZero,
    /// Operand stack underflow (compiler bug if it happens).
    StackUnderflow,
    /// `read` on an empty input queue.
    ReadEof,
    /// Instruction budget exhausted.
    StepBudget,
    /// The backend failed (heap/LPT exhaustion etc.).
    Backend(BackendError),
}

/// Typed failures crossing the EP–LP (VM–backend) boundary, so call
/// sites can match on the cause instead of parsing strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// The LPT overflowed and no space could be recovered: the machine
    /// would degrade to overflow mode (§4.3.2.3).
    TrueOverflow,
    /// The backing heap failed (exhaustion, bad operand).
    Heap(HeapError),
    /// car/cdr applied to a non-list operand.
    NotAList,
    /// The backend surfaced a word with a tag the machine cannot
    /// interpret — memory corruption, never reachable for well-formed
    /// programs.
    UnexpectedTag(Tag),
    /// The backend refused the operation because it is running in
    /// degraded (heap-direct overflow) mode; the payload names the
    /// refused operation.
    Degraded(&'static str),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::TrueOverflow => write!(f, "LPT true overflow"),
            BackendError::Heap(e) => write!(f, "heap: {e}"),
            BackendError::NotAList => write!(f, "operand is not a list object"),
            BackendError::UnexpectedTag(t) => write!(f, "unexpected word tag {t:?}"),
            BackendError::Degraded(what) => {
                write!(f, "{what} is unsupported in degraded overflow mode")
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for BackendError {
    fn from(e: HeapError) -> Self {
        BackendError::Heap(e)
    }
}

impl From<BackendError> for VmError {
    fn from(e: BackendError) -> Self {
        VmError::Backend(e)
    }
}

impl From<HeapError> for VmError {
    fn from(e: HeapError) -> Self {
        VmError::Backend(BackendError::Heap(e))
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Unbound(n) => write!(f, "unbound name {n}"),
            VmError::NoSuchFunction(n) => write!(f, "undefined function {n}"),
            VmError::TypeError(p) => write!(f, "type error in {p}"),
            VmError::DivideByZero => write!(f, "division by zero"),
            VmError::StackUnderflow => write!(f, "operand stack underflow"),
            VmError::ReadEof => write!(f, "read: input exhausted"),
            VmError::StepBudget => write!(f, "instruction budget exhausted"),
            VmError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

/// The list-structure interface the VM drives (the EP→LP request set of
/// §4.3.2.2: readlist, car, cdr, rplaca, rplacd, cons, plus writelist).
///
/// Reference discipline: every `List` value the VM holds (operand-stack
/// slot or binding) carries exactly one retained reference. Values
/// *returned* by `car`/`cdr`/`cons`/`read_in` arrive already retained;
/// the VM calls [`ListBackend::release`] whenever it drops a value and
/// [`ListBackend::retain`] whenever it copies one. Backends without
/// reference counting (the direct heap) leave the hooks as no-ops.
pub trait ListBackend {
    /// Handle type for list objects.
    type Ref: Clone + PartialEq + Eq + fmt::Debug;

    /// `car` of a list object.
    fn car(&mut self, r: &Self::Ref) -> Result<VmValue<Self::Ref>, VmError>;
    /// `cdr` of a list object.
    fn cdr(&mut self, r: &Self::Ref) -> Result<VmValue<Self::Ref>, VmError>;
    /// Allocate a cons of two values.
    fn cons(
        &mut self,
        car: VmValue<Self::Ref>,
        cdr: VmValue<Self::Ref>,
    ) -> Result<Self::Ref, VmError>;
    /// Replace the car of a list object.
    fn rplaca(&mut self, r: &Self::Ref, v: VmValue<Self::Ref>) -> Result<(), VmError>;
    /// Replace the cdr of a list object.
    fn rplacd(&mut self, r: &Self::Ref, v: VmValue<Self::Ref>) -> Result<(), VmError>;
    /// Read an s-expression into the backend (`readlist`).
    fn read_in(&mut self, e: &SExpr) -> Result<VmValue<Self::Ref>, VmError>;
    /// Reconstruct the s-expression for a value (`writelist`).
    fn write_out(&mut self, v: &VmValue<Self::Ref>) -> SExpr;
    /// Structural equality of two values.
    fn equal(&mut self, a: &VmValue<Self::Ref>, b: &VmValue<Self::Ref>) -> bool;
    /// A new *binding* reference to a list object was created (the EP
    /// tells the LP to increment the object's reference count).
    fn retain(&mut self, r: &Self::Ref) {
        let _ = r;
    }
    /// A binding reference was dropped (function return, §4.3.1).
    fn release(&mut self, r: &Self::Ref) {
        let _ = r;
    }
}

#[derive(Debug)]
struct Frame {
    /// Return address.
    ret_pc: usize,
    /// Binding-stack mark: bindings at or above this index belong here.
    bind_mark: usize,
    /// Operand-stack mark at call time.
    op_mark: usize,
}

/// VM execution statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct VmStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Function calls performed.
    pub fn_calls: u64,
    /// Maximum control-stack depth.
    pub max_depth: usize,
    /// List-primitive instructions executed (car/cdr/cons/rplaca/rplacd).
    pub list_ops: u64,
    /// Environment searches for free variables (PushName/SetName).
    pub name_searches: u64,
}

/// The stack-machine emulator.
pub struct Vm<B: ListBackend> {
    /// The list backend.
    pub backend: B,
    program: Program,
    /// Operand stack.
    stack: Vec<VmValue<B::Ref>>,
    /// Combined control/environment stack: name–value bindings.
    bindings: Vec<(Symbol, VmValue<B::Ref>)>,
    frames: Vec<Frame>,
    /// Input queue served to `RdList`.
    pub input: VecDeque<SExpr>,
    /// Output collected from `WrList`.
    pub output: Vec<SExpr>,
    stats: VmStats,
    budget: u64,
    /// Frame-slot base for code running outside any call frame. Zero on
    /// a fresh machine, but a reused session enters `run` with
    /// persistent globals already on the binding stack, and top-level
    /// `prog` locals must be addressed above them.
    entry_base: usize,
    /// Lazily built threaded-dispatch image of `program.code`: one
    /// handler-fn entry per instruction with operands pre-resolved.
    /// Invalidated whenever the program is swapped.
    decoded: Option<Arc<[DecodedOp<B>]>>,
}

/// One pre-decoded instruction of the threaded-dispatch backend: the
/// handler function pointer plus every operand it could need, resolved
/// at decode time (branch targets as absolute addresses, `FCall`
/// targets as entry/arity instead of a hash lookup per call).
struct DecodedOp<B: ListBackend> {
    handler: Handler<B>,
    addr: CodeAddr,
    num: i64,
    sym: Symbol,
    n: u16,
}

impl<B: ListBackend> Clone for DecodedOp<B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B: ListBackend> Copy for DecodedOp<B> {}

type Handler<B> =
    fn(&mut Vm<B>, &DecodedOp<B>, &mut usize) -> Result<Step<<B as ListBackend>::Ref>, VmError>;

/// Outcome of one dispatched instruction.
enum Step<R> {
    /// Keep executing at the (already advanced) program counter.
    Next,
    /// The program produced its final value (`Halt`, or a top-level
    /// `FRetN`).
    Done(VmValue<R>),
}

impl<B: ListBackend> Vm<B> {
    /// Create a VM for `program` over `backend`.
    pub fn new(program: Program, backend: B) -> Self {
        Vm {
            backend,
            program,
            stack: Vec::new(),
            bindings: Vec::new(),
            frames: Vec::new(),
            input: VecDeque::new(),
            output: Vec::new(),
            stats: VmStats::default(),
            budget: u64::MAX,
            entry_base: 0,
            decoded: None,
        }
    }

    /// Bound the number of instructions executed.
    pub fn set_budget(&mut self, n: u64) {
        self.budget = n;
    }

    /// Execution statistics.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Release every value still held by the machine (top-level bindings
    /// and operand-stack leftovers). Call when the program is done and
    /// reference accounting must balance.
    pub fn shutdown(&mut self) {
        while let Some(v) = self.stack.pop() {
            self.release_value(&v);
        }
        while let Some((_, v)) = self.bindings.pop() {
            self.release_value(&v);
        }
        self.frames.clear();
    }

    /// Swap in a new program, keeping the backend, the global bindings,
    /// and the I/O queues — the *session reuse* entry point: a serving
    /// layer compiles each request against a persistent interner and
    /// runs it on the same machine, so `setq`-created globals (and the
    /// list structure they retain) survive from one request to the
    /// next.
    ///
    /// Any leftover operand-stack values or frames from a previous
    /// (possibly failed) run are released first, exactly as
    /// [`Vm::recover`] would.
    pub fn load_program(&mut self, program: Program) {
        self.recover();
        self.program = program;
        self.decoded = None;
    }

    /// Unwind to the global level after a failed run: pop every call
    /// frame, release call-local bindings (everything at or above the
    /// outermost frame's binding mark) and all operand-stack leftovers.
    /// Globals — bindings below the first frame, including ones an
    /// unbound `setq` created mid-call — survive. A no-op on a machine
    /// that is already at rest.
    pub fn recover(&mut self) {
        let global_mark = self.frames.first().map_or(self.bindings.len(), |f| {
            f.bind_mark.min(self.bindings.len())
        });
        while self.bindings.len() > global_mark {
            let (_, v) = self.bindings.pop().expect("marked binding");
            self.release_value(&v);
        }
        self.frames.clear();
        while let Some(v) = self.stack.pop() {
            self.release_value(&v);
        }
    }

    /// The global bindings (name–value pairs below any call frame), in
    /// binding order. Only meaningful when the machine is at rest
    /// (after [`Vm::run`] returned and [`Vm::recover`] ran if it
    /// failed); a session layer serializes these to suspend a session.
    pub fn globals(&self) -> &[(Symbol, VmValue<B::Ref>)] {
        debug_assert!(self.frames.is_empty(), "globals read mid-call");
        &self.bindings
    }

    /// Restore the global bindings of a suspended session, in the exact
    /// order [`Vm::globals`] reported them. The values arrive with
    /// their references already accounted for in the restored backend
    /// (no `retain` is issued); the machine must be at rest and must
    /// not already hold bindings.
    pub fn restore_globals(&mut self, globals: Vec<(Symbol, VmValue<B::Ref>)>) {
        assert!(
            self.bindings.is_empty() && self.frames.is_empty(),
            "restore_globals on a machine that is not fresh"
        );
        self.bindings = globals;
    }

    /// Run from the program entry point; returns the final value left on
    /// the operand stack by `Halt` (or nil).
    ///
    /// Runs the pre-decoded threaded-dispatch loop ([`Vm::run_threaded`]).
    /// The decode-per-step [`Vm::run_reference`] executes the same
    /// per-opcode handlers and is the oracle the dispatch differential
    /// suite holds it against.
    pub fn run(&mut self) -> Result<VmValue<B::Ref>, VmError> {
        self.run_threaded()
    }

    /// Run with the reference interpreter: re-decode `Inst` and branch
    /// through a `match` on every step. This is the semantic oracle the
    /// dispatch differential suite holds [`Vm::run_threaded`] against.
    pub fn run_reference(&mut self) -> Result<VmValue<B::Ref>, VmError> {
        // Everything bound before this run (globals from earlier
        // requests, including persisted top-level prog locals) sits
        // below the entry block's own slot space.
        self.entry_base = self.bindings.len();
        let mut pc = self.program.entry;
        loop {
            if self.budget == 0 {
                return Err(VmError::StepBudget);
            }
            self.budget -= 1;
            self.stats.instructions += 1;
            let inst = self.program.code[pc];
            pc += 1;
            match inst {
                Inst::Halt => {
                    return Ok(self.stack.pop().unwrap_or(VmValue::Nil));
                }
                Inst::BindN(sym) => self.do_bindn(sym)?,
                Inst::BindNil(sym) => self.do_bindnil(sym),
                Inst::PushStk(k) => self.do_pushstk(k)?,
                Inst::PushName(sym) => self.do_pushname(sym)?,
                Inst::PushInt(i) => self.stack.push(VmValue::Int(i)),
                Inst::PushSym(s) => self.stack.push(VmValue::Sym(s)),
                Inst::PushNil => self.stack.push(VmValue::Nil),
                Inst::PushConst(k) => self.do_pushconst(k)?,
                Inst::Pop => self.do_pop_discard()?,
                Inst::Dup => self.do_dup()?,
                Inst::SetStk(k) => self.do_setstk(k)?,
                Inst::SetName(sym) => self.do_setname(sym)?,
                Inst::Jmp(a) => pc = a,
                Inst::Brf(a) => self.do_brf(a, &mut pc)?,
                Inst::Brt(a) => self.do_brt(a, &mut pc)?,
                Inst::BrNeq(a) => self.do_brneq(a, &mut pc)?,
                Inst::AddOp => self.do_add()?,
                Inst::SubOp => self.do_sub()?,
                Inst::MulOp => self.do_mul()?,
                Inst::DivOp => self.do_div()?,
                Inst::RemOp => self.do_rem()?,
                Inst::EqualP => self.do_equalp()?,
                Inst::EqP => self.do_eqp()?,
                Inst::GreaterP => self.do_greaterp()?,
                Inst::LessP => self.do_lessp()?,
                Inst::AtomP => self.do_atomp()?,
                Inst::NullP => self.do_nullp()?,
                Inst::CarOp => self.do_car()?,
                Inst::CdrOp => self.do_cdr()?,
                Inst::ConsOp => self.do_cons()?,
                Inst::RplacaOp => self.do_rplaca()?,
                Inst::RplacdOp => self.do_rplacd()?,
                Inst::RdList => self.do_rdlist()?,
                Inst::WrList => self.do_wrlist()?,
                Inst::FCall(name, _nargs) => {
                    let fi = self
                        .program
                        .functions
                        .get(&name)
                        .copied()
                        .ok_or_else(|| VmError::NoSuchFunction(format!("#{}", name.0)))?;
                    self.do_call(fi.entry, fi.arity, &mut pc);
                }
                Inst::FRetN => {
                    if let Some(ret) = self.do_fretn(&mut pc)? {
                        // `return` at top level (outside any call): the
                        // program's final value.
                        return Ok(ret);
                    }
                }
            }
        }
    }

    /// Run with threaded dispatch: on first use the program is decoded
    /// into a dense array of handler-fn entries with operands resolved
    /// (branch targets absolute, `FCall` targets looked up once), then
    /// the loop is an indexed load and an indirect call per step — no
    /// per-step operand decoding or function-table hashing.
    pub fn run_threaded(&mut self) -> Result<VmValue<B::Ref>, VmError> {
        let ops = match &self.decoded {
            Some(ops) => Arc::clone(ops),
            None => {
                let ops: Arc<[DecodedOp<B>]> = self
                    .program
                    .code
                    .iter()
                    .map(|&inst| Self::decode_inst(inst, &self.program))
                    .collect();
                self.decoded = Some(Arc::clone(&ops));
                ops
            }
        };
        // Everything bound before this run (globals from earlier
        // requests, including persisted top-level prog locals) sits
        // below the entry block's own slot space.
        self.entry_base = self.bindings.len();
        let mut pc = self.program.entry;
        loop {
            if self.budget == 0 {
                return Err(VmError::StepBudget);
            }
            self.budget -= 1;
            self.stats.instructions += 1;
            let op = &ops[pc];
            pc += 1;
            match (op.handler)(self, op, &mut pc)? {
                Step::Next => {}
                Step::Done(v) => return Ok(v),
            }
        }
    }

    // -----------------------------------------------------------------
    // Threaded-dispatch decode and handlers
    // -----------------------------------------------------------------

    fn decode_inst(inst: Inst, program: &Program) -> DecodedOp<B> {
        let mut op = DecodedOp {
            handler: Self::th_halt as Handler<B>,
            addr: 0,
            num: 0,
            sym: Symbol(0),
            n: 0,
        };
        match inst {
            Inst::Halt => op.handler = Self::th_halt,
            Inst::BindN(s) => (op.handler, op.sym) = (Self::th_bindn, s),
            Inst::BindNil(s) => (op.handler, op.sym) = (Self::th_bindnil, s),
            Inst::PushStk(k) => (op.handler, op.n) = (Self::th_pushstk, k),
            Inst::PushName(s) => (op.handler, op.sym) = (Self::th_pushname, s),
            Inst::PushInt(i) => (op.handler, op.num) = (Self::th_pushint, i),
            Inst::PushSym(s) => (op.handler, op.sym) = (Self::th_pushsym, s),
            Inst::PushNil => op.handler = Self::th_pushnil,
            Inst::PushConst(k) => (op.handler, op.n) = (Self::th_pushconst, k),
            Inst::Pop => op.handler = Self::th_pop,
            Inst::Dup => op.handler = Self::th_dup,
            Inst::SetStk(k) => (op.handler, op.n) = (Self::th_setstk, k),
            Inst::SetName(s) => (op.handler, op.sym) = (Self::th_setname, s),
            Inst::Jmp(a) => (op.handler, op.addr) = (Self::th_jmp, a),
            Inst::Brf(a) => (op.handler, op.addr) = (Self::th_brf, a),
            Inst::Brt(a) => (op.handler, op.addr) = (Self::th_brt, a),
            Inst::BrNeq(a) => (op.handler, op.addr) = (Self::th_brneq, a),
            Inst::AddOp => op.handler = Self::th_add,
            Inst::SubOp => op.handler = Self::th_sub,
            Inst::MulOp => op.handler = Self::th_mul,
            Inst::DivOp => op.handler = Self::th_div,
            Inst::RemOp => op.handler = Self::th_rem,
            Inst::EqualP => op.handler = Self::th_equalp,
            Inst::EqP => op.handler = Self::th_eqp,
            Inst::GreaterP => op.handler = Self::th_greaterp,
            Inst::LessP => op.handler = Self::th_lessp,
            Inst::AtomP => op.handler = Self::th_atomp,
            Inst::NullP => op.handler = Self::th_nullp,
            Inst::CarOp => op.handler = Self::th_car,
            Inst::CdrOp => op.handler = Self::th_cdr,
            Inst::ConsOp => op.handler = Self::th_cons,
            Inst::RplacaOp => op.handler = Self::th_rplaca,
            Inst::RplacdOp => op.handler = Self::th_rplacd,
            Inst::RdList => op.handler = Self::th_rdlist,
            Inst::WrList => op.handler = Self::th_wrlist,
            Inst::FCall(name, _nargs) => match program.functions.get(&name) {
                // The hash lookup the reference loop pays per call
                // happens once, here. A call to an undefined function
                // must still fail at *execution* time (the call site may
                // be dead code), so it decodes to an erroring handler.
                Some(fi) => {
                    (op.handler, op.addr, op.n) = (Self::th_call, fi.entry, u16::from(fi.arity))
                }
                None => (op.handler, op.sym) = (Self::th_call_missing, name),
            },
            Inst::FRetN => op.handler = Self::th_fretn,
        }
        op
    }

    fn th_halt(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        Ok(Step::Done(vm.stack.pop().unwrap_or(VmValue::Nil)))
    }

    fn th_bindn(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_bindn(op.sym)?;
        Ok(Step::Next)
    }

    fn th_bindnil(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_bindnil(op.sym);
        Ok(Step::Next)
    }

    fn th_pushstk(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_pushstk(op.n)?;
        Ok(Step::Next)
    }

    fn th_pushname(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_pushname(op.sym)?;
        Ok(Step::Next)
    }

    fn th_pushint(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.stack.push(VmValue::Int(op.num));
        Ok(Step::Next)
    }

    fn th_pushsym(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.stack.push(VmValue::Sym(op.sym));
        Ok(Step::Next)
    }

    fn th_pushnil(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.stack.push(VmValue::Nil);
        Ok(Step::Next)
    }

    fn th_pushconst(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_pushconst(op.n)?;
        Ok(Step::Next)
    }

    fn th_pop(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_pop_discard()?;
        Ok(Step::Next)
    }

    fn th_dup(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_dup()?;
        Ok(Step::Next)
    }

    fn th_setstk(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_setstk(op.n)?;
        Ok(Step::Next)
    }

    fn th_setname(
        vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_setname(op.sym)?;
        Ok(Step::Next)
    }

    fn th_jmp(vm: &mut Self, op: &DecodedOp<B>, pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        let _ = vm;
        *pc = op.addr;
        Ok(Step::Next)
    }

    fn th_brf(vm: &mut Self, op: &DecodedOp<B>, pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_brf(op.addr, pc)?;
        Ok(Step::Next)
    }

    fn th_brt(vm: &mut Self, op: &DecodedOp<B>, pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_brt(op.addr, pc)?;
        Ok(Step::Next)
    }

    fn th_brneq(vm: &mut Self, op: &DecodedOp<B>, pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_brneq(op.addr, pc)?;
        Ok(Step::Next)
    }

    fn th_add(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_add()?;
        Ok(Step::Next)
    }

    fn th_sub(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_sub()?;
        Ok(Step::Next)
    }

    fn th_mul(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_mul()?;
        Ok(Step::Next)
    }

    fn th_div(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_div()?;
        Ok(Step::Next)
    }

    fn th_rem(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_rem()?;
        Ok(Step::Next)
    }

    fn th_equalp(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_equalp()?;
        Ok(Step::Next)
    }

    fn th_eqp(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_eqp()?;
        Ok(Step::Next)
    }

    fn th_greaterp(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_greaterp()?;
        Ok(Step::Next)
    }

    fn th_lessp(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_lessp()?;
        Ok(Step::Next)
    }

    fn th_atomp(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_atomp()?;
        Ok(Step::Next)
    }

    fn th_nullp(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_nullp()?;
        Ok(Step::Next)
    }

    fn th_car(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_car()?;
        Ok(Step::Next)
    }

    fn th_cdr(vm: &mut Self, _op: &DecodedOp<B>, _pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_cdr()?;
        Ok(Step::Next)
    }

    fn th_cons(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_cons()?;
        Ok(Step::Next)
    }

    fn th_rplaca(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_rplaca()?;
        Ok(Step::Next)
    }

    fn th_rplacd(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_rplacd()?;
        Ok(Step::Next)
    }

    fn th_rdlist(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_rdlist()?;
        Ok(Step::Next)
    }

    fn th_wrlist(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        vm.do_wrlist()?;
        Ok(Step::Next)
    }

    fn th_call(vm: &mut Self, op: &DecodedOp<B>, pc: &mut usize) -> Result<Step<B::Ref>, VmError> {
        vm.do_call(op.addr, op.n as u8, pc);
        Ok(Step::Next)
    }

    fn th_call_missing(
        _vm: &mut Self,
        op: &DecodedOp<B>,
        _pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        Err(VmError::NoSuchFunction(format!("#{}", op.sym.0)))
    }

    fn th_fretn(
        vm: &mut Self,
        _op: &DecodedOp<B>,
        pc: &mut usize,
    ) -> Result<Step<B::Ref>, VmError> {
        match vm.do_fretn(pc)? {
            Some(ret) => Ok(Step::Done(ret)),
            None => Ok(Step::Next),
        }
    }

    // -----------------------------------------------------------------
    // Per-opcode cores, shared by both dispatch backends
    // -----------------------------------------------------------------

    #[inline(always)]
    fn frame_base(&self) -> usize {
        self.frames.last().map_or(self.entry_base, |f| f.bind_mark)
    }

    #[inline(always)]
    fn do_bindn(&mut self, sym: Symbol) -> Result<(), VmError> {
        // The binding inherits the operand-stack reference.
        let v = self.pop()?;
        self.bindings.push((sym, v));
        Ok(())
    }

    #[inline(always)]
    fn do_bindnil(&mut self, sym: Symbol) {
        self.bindings.push((sym, VmValue::Nil));
    }

    #[inline(always)]
    fn do_pushstk(&mut self, k: u16) -> Result<(), VmError> {
        let base = self.frame_base();
        let v = self
            .bindings
            .get(base + k as usize)
            .ok_or(VmError::StackUnderflow)?
            .1
            .clone();
        self.retain_value(&v);
        self.stack.push(v);
        Ok(())
    }

    #[inline(always)]
    fn do_pushname(&mut self, sym: Symbol) -> Result<(), VmError> {
        self.stats.name_searches += 1;
        let v = self
            .bindings
            .iter()
            .rev()
            .find(|(n, _)| *n == sym)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| VmError::Unbound(format!("#{}", sym.0)))?;
        self.retain_value(&v);
        self.stack.push(v);
        Ok(())
    }

    #[inline(always)]
    fn do_pushconst(&mut self, k: u16) -> Result<(), VmError> {
        let e = self.program.constants[k as usize].clone();
        let v = self.backend.read_in(&e)?;
        self.stack.push(v);
        Ok(())
    }

    #[inline(always)]
    fn do_pop_discard(&mut self) -> Result<(), VmError> {
        let v = self.pop()?;
        self.release_value(&v);
        Ok(())
    }

    #[inline(always)]
    fn do_dup(&mut self) -> Result<(), VmError> {
        let v = self.peek()?.clone();
        self.retain_value(&v);
        self.stack.push(v);
        Ok(())
    }

    #[inline(always)]
    fn do_setstk(&mut self, k: u16) -> Result<(), VmError> {
        let v = self.peek()?.clone();
        self.retain_value(&v);
        let base = self.frame_base();
        let slot = self
            .bindings
            .get_mut(base + k as usize)
            .ok_or(VmError::StackUnderflow)?;
        let old = std::mem::replace(&mut slot.1, v);
        self.release_value(&old);
        Ok(())
    }

    #[inline(always)]
    fn do_setname(&mut self, sym: Symbol) -> Result<(), VmError> {
        self.stats.name_searches += 1;
        let v = self.peek()?.clone();
        self.retain_value(&v);
        match self.bindings.iter_mut().rev().find(|(n, _)| *n == sym) {
            Some(slot) => {
                let old = std::mem::replace(&mut slot.1, v);
                self.release_value(&old);
            }
            None => {
                // Unbound setq creates a global binding below
                // every frame.
                self.bindings.insert(0, (sym, v));
                self.entry_base += 1;
                for f in &mut self.frames {
                    f.bind_mark += 1;
                }
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn do_brf(&mut self, a: CodeAddr, pc: &mut usize) -> Result<(), VmError> {
        let v = self.pop()?;
        self.release_value(&v);
        if !v.is_true() {
            *pc = a;
        }
        Ok(())
    }

    #[inline(always)]
    fn do_brt(&mut self, a: CodeAddr, pc: &mut usize) -> Result<(), VmError> {
        let v = self.pop()?;
        self.release_value(&v);
        if v.is_true() {
            *pc = a;
        }
        Ok(())
    }

    #[inline(always)]
    fn do_brneq(&mut self, a: CodeAddr, pc: &mut usize) -> Result<(), VmError> {
        let b = self.pop()?;
        let x = self.pop()?;
        let eq = self.backend.equal(&x, &b);
        self.release_value(&b);
        self.release_value(&x);
        if !eq {
            *pc = a;
        }
        Ok(())
    }

    #[inline(always)]
    fn do_add(&mut self) -> Result<(), VmError> {
        self.arith(|x, y| Ok(x.wrapping_add(y)))
    }

    #[inline(always)]
    fn do_sub(&mut self) -> Result<(), VmError> {
        self.arith(|x, y| Ok(x.wrapping_sub(y)))
    }

    #[inline(always)]
    fn do_mul(&mut self) -> Result<(), VmError> {
        self.arith(|x, y| Ok(x.wrapping_mul(y)))
    }

    #[inline(always)]
    fn do_div(&mut self) -> Result<(), VmError> {
        self.arith(|x, y| {
            if y == 0 {
                Err(VmError::DivideByZero)
            } else {
                Ok(x / y)
            }
        })
    }

    #[inline(always)]
    fn do_rem(&mut self) -> Result<(), VmError> {
        self.arith(|x, y| {
            if y == 0 {
                Err(VmError::DivideByZero)
            } else {
                Ok(x % y)
            }
        })
    }

    #[inline(always)]
    fn do_equalp(&mut self) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let eq = self.backend.equal(&a, &b);
        self.release_value(&a);
        self.release_value(&b);
        self.push_bool(eq);
        Ok(())
    }

    #[inline(always)]
    fn do_eqp(&mut self) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let eq = a == b;
        self.release_value(&a);
        self.release_value(&b);
        self.push_bool(eq);
        Ok(())
    }

    #[inline(always)]
    fn do_greaterp(&mut self) -> Result<(), VmError> {
        let (x, y) = self.two_ints()?;
        self.push_bool(x > y);
        Ok(())
    }

    #[inline(always)]
    fn do_lessp(&mut self) -> Result<(), VmError> {
        let (x, y) = self.two_ints()?;
        self.push_bool(x < y);
        Ok(())
    }

    #[inline(always)]
    fn do_atomp(&mut self) -> Result<(), VmError> {
        let v = self.pop()?;
        self.release_value(&v);
        self.push_bool(v.is_atom());
        Ok(())
    }

    #[inline(always)]
    fn do_nullp(&mut self) -> Result<(), VmError> {
        let v = self.pop()?;
        self.release_value(&v);
        self.push_bool(!v.is_true());
        Ok(())
    }

    #[inline(always)]
    fn do_car(&mut self) -> Result<(), VmError> {
        self.stats.list_ops += 1;
        let v = self.pop()?;
        let out = match &v {
            VmValue::List(r) => self.backend.car(r)?,
            VmValue::Nil => VmValue::Nil,
            _ => return Err(VmError::TypeError("car")),
        };
        self.release_value(&v);
        self.stack.push(out);
        Ok(())
    }

    #[inline(always)]
    fn do_cdr(&mut self) -> Result<(), VmError> {
        self.stats.list_ops += 1;
        let v = self.pop()?;
        let out = match &v {
            VmValue::List(r) => self.backend.cdr(r)?,
            VmValue::Nil => VmValue::Nil,
            _ => return Err(VmError::TypeError("cdr")),
        };
        self.release_value(&v);
        self.stack.push(out);
        Ok(())
    }

    #[inline(always)]
    fn do_cons(&mut self) -> Result<(), VmError> {
        self.stats.list_ops += 1;
        let cdr = self.pop()?;
        let car = self.pop()?;
        let r = self.backend.cons(car.clone(), cdr.clone())?;
        self.release_value(&car);
        self.release_value(&cdr);
        self.stack.push(VmValue::List(r));
        Ok(())
    }

    #[inline(always)]
    fn do_rplaca(&mut self) -> Result<(), VmError> {
        self.stats.list_ops += 1;
        let v = self.pop()?;
        let target = self.pop()?;
        match &target {
            VmValue::List(r) => self.backend.rplaca(r, v.clone())?,
            _ => return Err(VmError::TypeError("rplaca")),
        }
        self.release_value(&v);
        self.stack.push(target);
        Ok(())
    }

    #[inline(always)]
    fn do_rplacd(&mut self) -> Result<(), VmError> {
        self.stats.list_ops += 1;
        let v = self.pop()?;
        let target = self.pop()?;
        match &target {
            VmValue::List(r) => self.backend.rplacd(r, v.clone())?,
            _ => return Err(VmError::TypeError("rplacd")),
        }
        self.release_value(&v);
        self.stack.push(target);
        Ok(())
    }

    #[inline(always)]
    fn do_rdlist(&mut self) -> Result<(), VmError> {
        let e = self.input.pop_front().ok_or(VmError::ReadEof)?;
        let v = self.backend.read_in(&e)?;
        self.stack.push(v);
        Ok(())
    }

    #[inline(always)]
    fn do_wrlist(&mut self) -> Result<(), VmError> {
        let v = self.peek()?.clone();
        let e = self.backend.write_out(&v);
        self.output.push(e);
        Ok(())
    }

    #[inline(always)]
    fn do_call(&mut self, entry: CodeAddr, arity: u8, pc: &mut usize) {
        self.stats.fn_calls += 1;
        self.frames.push(Frame {
            ret_pc: *pc,
            bind_mark: self.bindings.len(),
            op_mark: self.stack.len().saturating_sub(arity as usize),
        });
        self.stats.max_depth = self.stats.max_depth.max(self.frames.len());
        *pc = entry;
    }

    /// Returns `Some(value)` on a top-level `return` (outside any call).
    #[inline(always)]
    fn do_fretn(&mut self, pc: &mut usize) -> Result<Option<VmValue<B::Ref>>, VmError> {
        let ret = self.pop()?;
        let Some(frame) = self.frames.pop() else {
            return Ok(Some(ret));
        };
        // Unbind this call's bindings, releasing list refs
        // (the burst of decrement traffic of §5.3.3).
        while self.bindings.len() > frame.bind_mark {
            let (_, v) = self.bindings.pop().expect("marked binding");
            self.release_value(&v);
        }
        while self.stack.len() > frame.op_mark {
            let v = self.stack.pop().expect("marked operand");
            self.release_value(&v);
        }
        self.stack.push(ret);
        *pc = frame.ret_pc;
        Ok(None)
    }

    fn pop(&mut self) -> Result<VmValue<B::Ref>, VmError> {
        self.stack.pop().ok_or(VmError::StackUnderflow)
    }

    fn release_value(&mut self, v: &VmValue<B::Ref>) {
        if let VmValue::List(r) = v {
            self.backend.release(r);
        }
    }

    #[inline(always)]
    fn retain_value(&mut self, v: &VmValue<B::Ref>) {
        if let VmValue::List(r) = v {
            self.backend.retain(r);
        }
    }

    fn peek(&self) -> Result<&VmValue<B::Ref>, VmError> {
        self.stack.last().ok_or(VmError::StackUnderflow)
    }

    fn push_bool(&mut self, b: bool) {
        // Truth is any non-nil value; predicates feed Brf/Brt, so the
        // canonical truth constant is Int(1) (the VM has no access to the
        // interner to push the symbol `t`).
        self.stack
            .push(if b { VmValue::Int(1) } else { VmValue::Nil });
    }

    fn two_ints(&mut self) -> Result<(i64, i64), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        match (a, b) {
            (VmValue::Int(x), VmValue::Int(y)) => Ok((x, y)),
            _ => Err(VmError::TypeError("integer comparison")),
        }
    }

    fn arith(&mut self, f: impl Fn(i64, i64) -> Result<i64, VmError>) -> Result<(), VmError> {
        let (x, y) = self.two_ints()?;
        self.stack.push(VmValue::Int(f(x, y)?));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Direct backend: lists straight on a two-pointer heap
// ---------------------------------------------------------------------

use small_heap::{TwoPointerHeap, Word};

/// The conventional-machine baseline backend: list values live on a
/// [`TwoPointerHeap`], references are raw heap words.
pub struct DirectBackend {
    /// The backing heap.
    pub heap: TwoPointerHeap,
}

impl DirectBackend {
    /// Create a backend with a heap of `cells` cells.
    pub fn new(cells: usize) -> Self {
        DirectBackend {
            heap: TwoPointerHeap::with_capacity(cells),
        }
    }

    fn to_value(w: Word) -> VmValue<Word> {
        match w.tag() {
            Tag::Nil => VmValue::Nil,
            Tag::Int => VmValue::Int(w.as_int()),
            Tag::Sym => VmValue::Sym(Symbol(w.as_sym())),
            Tag::Ptr | Tag::Invisible => VmValue::List(w),
            _ => VmValue::Nil,
        }
    }

    fn to_word(v: &VmValue<Word>) -> Word {
        match v {
            VmValue::Nil => Word::NIL,
            VmValue::Int(i) => Word::int(*i),
            VmValue::Sym(s) => Word::sym(s.0),
            VmValue::List(w) => *w,
        }
    }
}

impl ListBackend for DirectBackend {
    type Ref = Word;

    fn car(&mut self, r: &Word) -> Result<VmValue<Word>, VmError> {
        Ok(Self::to_value(self.heap.car(r.addr())))
    }

    fn cdr(&mut self, r: &Word) -> Result<VmValue<Word>, VmError> {
        Ok(Self::to_value(self.heap.cdr(r.addr())))
    }

    fn cons(&mut self, car: VmValue<Word>, cdr: VmValue<Word>) -> Result<Word, VmError> {
        let cw = Self::to_word(&car);
        let dw = Self::to_word(&cdr);
        self.heap
            .alloc(cw, dw)
            .map(Word::ptr)
            .ok_or(VmError::Backend(BackendError::Heap(HeapError::Exhausted)))
    }

    fn rplaca(&mut self, r: &Word, v: VmValue<Word>) -> Result<(), VmError> {
        self.heap.rplaca(r.addr(), Self::to_word(&v));
        Ok(())
    }

    fn rplacd(&mut self, r: &Word, v: VmValue<Word>) -> Result<(), VmError> {
        self.heap.rplacd(r.addr(), Self::to_word(&v));
        Ok(())
    }

    fn read_in(&mut self, e: &SExpr) -> Result<VmValue<Word>, VmError> {
        let w = self
            .heap
            .intern(e)
            .ok_or(VmError::Backend(BackendError::Heap(HeapError::Exhausted)))?;
        Ok(Self::to_value(w))
    }

    fn write_out(&mut self, v: &VmValue<Word>) -> SExpr {
        self.heap.extract(Self::to_word(v))
    }

    fn equal(&mut self, a: &VmValue<Word>, b: &VmValue<Word>) -> bool {
        match (a, b) {
            (VmValue::List(x), VmValue::List(y)) => self.heap.extract(*x) == self.heap.extract(*y),
            // Cross-type numeric/bool truth: predicates push Int(1).
            (VmValue::Int(x), VmValue::Int(y)) => x == y,
            (VmValue::Sym(x), VmValue::Sym(y)) => x == y,
            (VmValue::Nil, VmValue::Nil) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_program;
    use small_sexpr::{parse, print, Interner};

    fn run_src(src: &str) -> (String, Interner) {
        let mut i = Interner::new();
        let p = compile_program(src, &mut i).expect("compile");
        let mut vm = Vm::new(p, DirectBackend::new(65536));
        let v = vm.run().expect("run");
        let e = vm.backend.write_out(&v);
        (print(&e, &i), i)
    }

    #[test]
    fn factorial_figure_4_14() {
        let src = "
        (def fact (lambda (x)
          (cond ((equal x 0) 1)
                (t (times x (fact (sub x 1)))))))
        (fact 10)";
        assert_eq!(run_src(src).0, "3628800");
    }

    #[test]
    fn list_manipulation_figure_4_15() {
        let mut i = Interner::new();
        let src = "
        (def printit (lambda (junk) (write (cdr junk))))
        (def doit (lambda ()
          (prog (lst)
            (read lst)
            (printit lst)
            (setq lst (cdr (cdr lst)))
            (return lst))))
        (doit)";
        let p = compile_program(src, &mut i).unwrap();
        let mut vm = Vm::new(p, DirectBackend::new(4096));
        vm.input.push_back(parse("(a b c d)", &mut i).unwrap());
        let v = vm.run().unwrap();
        let out = vm.backend.write_out(&v);
        assert_eq!(print(&out, &i), "(c d)");
        assert_eq!(print(&vm.output[0], &i), "(b c d)");
    }

    #[test]
    fn quoted_constants() {
        assert_eq!(run_src("(car '(a b))").0, "a");
        assert_eq!(run_src("(cdr '(a (b c)))").0, "((b c))");
    }

    #[test]
    fn arithmetic_chain() {
        assert_eq!(run_src("(add 1 (times 2 3))").0, "7");
        assert_eq!(run_src("(sub 10 (quotient 7 2))").0, "7");
        assert_eq!(run_src("(rem 17 5)").0, "2");
    }

    #[test]
    fn cond_without_body_keeps_test_value() {
        assert_eq!(run_src("(cond (nil 1) (5))").0, "5");
        assert_eq!(run_src("(cond (nil 1))").0, "nil");
    }

    #[test]
    fn and_or_short_circuit() {
        assert_eq!(run_src("(and 1 2 3)").0, "3");
        assert_eq!(run_src("(and 1 nil 3)").0, "nil");
        assert_eq!(run_src("(or nil nil 7)").0, "7");
        assert_eq!(run_src("(or nil nil)").0, "nil");
    }

    #[test]
    fn prog_loop_with_go() {
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
        (sum-to 100)";
        assert_eq!(run_src(src).0, "5050");
    }

    #[test]
    fn recursive_list_function() {
        let src = "
        (def append2 (lambda (a b)
          (cond ((null a) b)
                (t (cons (car a) (append2 (cdr a) b))))))
        (append2 '(1 2 3) '(4 5))";
        assert_eq!(run_src(src).0, "(1 2 3 4 5)");
    }

    #[test]
    fn rplaca_rplacd_on_heap() {
        let src = "
        (prog (x)
          (setq x '(1 2 3))
          (rplaca x 9)
          (rplacd (cdr x) '(7))
          (return x))";
        assert_eq!(run_src(src).0, "(9 2 7)");
    }

    #[test]
    fn free_variable_dynamic_scope() {
        let src = "
        (def g (lambda () x))
        (def f (lambda (x) (g)))
        (f 42)";
        assert_eq!(run_src(src).0, "42");
    }

    #[test]
    fn setq_of_unbound_creates_global() {
        let src = "
        (def f (lambda () (setq g 5)))
        (progn (f) g)";
        assert_eq!(run_src(src).0, "5");
    }

    #[test]
    fn stats_count_list_ops() {
        let mut i = Interner::new();
        let p = compile_program("(car (cdr '(1 2 3)))", &mut i).unwrap();
        let mut vm = Vm::new(p, DirectBackend::new(256));
        vm.run().unwrap();
        assert_eq!(vm.stats().list_ops, 2);
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let mut i = Interner::new();
        let p = compile_program("(prog () loop (go loop))", &mut i).unwrap();
        let mut vm = Vm::new(p, DirectBackend::new(256));
        vm.set_budget(10_000);
        assert_eq!(vm.run(), Err(VmError::StepBudget));
    }

    #[test]
    fn load_program_keeps_globals_across_requests() {
        let mut i = Interner::new();
        let p1 = compile_program("(setq acc '(1 2 3))", &mut i).unwrap();
        let mut vm = Vm::new(p1, DirectBackend::new(4096));
        vm.run().unwrap();
        assert_eq!(vm.globals().len(), 1);

        let p2 = compile_program("(car acc)", &mut i).unwrap();
        vm.load_program(p2);
        let v = vm.run().unwrap();
        let out = vm.backend.write_out(&v);
        assert_eq!(print(&out, &i), "1");

        // A later request can rebind the same global.
        let p3 = compile_program("(progn (setq acc (cdr acc)) acc)", &mut i).unwrap();
        vm.load_program(p3);
        let v = vm.run().unwrap();
        let out = vm.backend.write_out(&v);
        assert_eq!(print(&out, &i), "(2 3)");
        assert_eq!(vm.globals().len(), 1);
    }

    #[test]
    fn top_level_prog_locals_do_not_alias_globals() {
        // Regression: on a reused machine the binding stack already
        // holds globals when the entry block runs, so top-level prog
        // locals (frame slots with no enclosing frame) must be
        // addressed above them — slot 0 is NOT binding 0.
        let mut i = Interner::new();
        let p1 = compile_program("(setq acc nil)", &mut i).unwrap();
        let mut vm = Vm::new(p1, DirectBackend::new(4096));
        vm.run().unwrap();

        let p2 = compile_program(
            "(prog (x) (setq x (cons 3 acc)) (rplaca x 1) (rplacd x acc) (return (car x)))",
            &mut i,
        )
        .unwrap();
        vm.load_program(p2);
        let v = vm.run().unwrap();
        let out = vm.backend.write_out(&v);
        assert_eq!(print(&out, &i), "1");

        // The global was only read, never clobbered through slot 0.
        let p3 = compile_program("acc", &mut i).unwrap();
        vm.load_program(p3);
        let v = vm.run().unwrap();
        let out = vm.backend.write_out(&v);
        assert_eq!(print(&out, &i), "nil");
    }

    #[test]
    fn recover_after_error_preserves_globals() {
        let mut i = Interner::new();
        let src = "
        (def f (lambda (x) (car 5)))
        (progn (setq g 7) (f 1))";
        let p = compile_program(src, &mut i).unwrap();
        let mut vm = Vm::new(p, DirectBackend::new(4096));
        assert_eq!(vm.run(), Err(VmError::TypeError("car")));
        vm.recover();
        assert_eq!(vm.globals().len(), 1);

        let p2 = compile_program("g", &mut i).unwrap();
        vm.load_program(p2);
        let v = vm.run().unwrap();
        let out = vm.backend.write_out(&v);
        assert_eq!(print(&out, &i), "7");
    }

    #[test]
    fn restore_globals_round_trips() {
        let mut i = Interner::new();
        let p1 = compile_program("(setq pair (cons 4 5))", &mut i).unwrap();
        let mut vm = Vm::new(p1, DirectBackend::new(4096));
        vm.run().unwrap();
        let saved = vm.globals().to_vec();

        // A fresh machine over the same backend resumes those bindings
        // (the direct backend has no refcounts, so moving the heap over
        // is the whole restore).
        let backend = std::mem::replace(&mut vm.backend, DirectBackend::new(16));
        let p2 = compile_program("(cdr pair)", &mut i).unwrap();
        let mut vm2 = Vm::new(p2, backend);
        vm2.restore_globals(saved);
        let v = vm2.run().unwrap();
        let out = vm2.backend.write_out(&v);
        assert_eq!(print(&out, &i), "5");
    }

    #[test]
    fn disassembly_mentions_fact_shape() {
        // Sanity-check the Figure 4.14 shape: BINDN, PUSHSTK, EQUALP…
        let mut i = Interner::new();
        let p = compile_program(
            "(def fact (lambda (x) (cond ((equal x 0) 1) (t (times x (fact (sub x 1)))))))",
            &mut i,
        )
        .unwrap();
        let dis = p.disassemble(&i);
        for needle in [
            "fact:",
            "BINDN    x",
            "PUSHSTK  1",
            "EQUALP",
            "FCALL    fact 1",
            "MULOP",
            "FRETN",
        ] {
            assert!(dis.contains(needle), "missing {needle} in:\n{dis}");
        }
    }
}
