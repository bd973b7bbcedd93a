//! Instruction set of the Twill IR.
//!
//! The opcode vocabulary mirrors the LLVM 2.9 subset that the Twill thesis
//! operates on after its shaping passes: integer arithmetic, comparisons,
//! memory access through explicit addresses, `gep`-style address arithmetic,
//! direct calls, PHI nodes, and structured terminators. The DSWP pass adds
//! the runtime intrinsics (`enqueue`/`dequeue`/semaphore ops) described in
//! Chapter 4 of the thesis.

use crate::entities::{BlockId, FuncId, GlobalId, InstId, QueueId, SemId};
use crate::module::Ty;
use std::fmt;

/// An SSA value operand: the result of an instruction, a function argument,
/// or an immediate constant carrying its own type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Result of instruction `InstId` in the current function.
    Inst(InstId),
    /// The n-th formal parameter of the current function.
    Arg(u16),
    /// An immediate constant. The payload is stored sign-extended to i64 and
    /// masked to the width of `Ty` when evaluated.
    Imm(i64, Ty),
}

impl Value {
    pub const fn imm32(v: i64) -> Value {
        Value::Imm(v, Ty::I32)
    }
    pub const fn imm1(v: bool) -> Value {
        Value::Imm(v as i64, Ty::I1)
    }
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Value::Inst(i) => Some(i),
            _ => None,
        }
    }
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Value::Imm(v, _) => Some(v),
            _ => None,
        }
    }
    pub fn is_const(self) -> bool {
        matches!(self, Value::Imm(..))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Inst(i) => write!(f, "{i}"),
            Value::Arg(n) => write!(f, "%a{n}"),
            Value::Imm(v, t) => write!(f, "{v}:{t}"),
        }
    }
}

/// Two-operand integer arithmetic / bitwise operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division (traps on divide-by-zero, like the hardware divider).
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    /// Arithmetic (sign-preserving) shift right.
    AShr,
    /// Logical shift right.
    LShr,
}

impl BinOp {
    pub const ALL: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::SDiv,
        BinOp::UDiv,
        BinOp::SRem,
        BinOp::URem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::AShr,
        BinOp::LShr,
    ];

    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::LShr => "lshr",
        }
    }

    /// Whether `a op b == b op a`.
    pub fn commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// Division and remainder can trap and therefore cannot be speculated or
    /// dead-code-eliminated when the divisor is not a proven non-zero value.
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
    }
}

/// Integer comparison predicates (result type is always `i1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl CmpOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Slt => "slt",
            CmpOp::Sle => "sle",
            CmpOp::Sgt => "sgt",
            CmpOp::Sge => "sge",
            CmpOp::Ult => "ult",
            CmpOp::Ule => "ule",
            CmpOp::Ugt => "ugt",
            CmpOp::Uge => "uge",
        }
    }

    /// Predicate with operands swapped: `a op b == b op.swapped() a`.
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Slt => CmpOp::Sgt,
            CmpOp::Sle => CmpOp::Sge,
            CmpOp::Sgt => CmpOp::Slt,
            CmpOp::Sge => CmpOp::Sle,
            CmpOp::Ult => CmpOp::Ugt,
            CmpOp::Ule => CmpOp::Uge,
            CmpOp::Ugt => CmpOp::Ult,
            CmpOp::Uge => CmpOp::Ule,
        }
    }

    /// Logical negation of the predicate.
    pub fn inverted(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Slt => CmpOp::Sge,
            CmpOp::Sle => CmpOp::Sgt,
            CmpOp::Sgt => CmpOp::Sle,
            CmpOp::Sge => CmpOp::Slt,
            CmpOp::Ult => CmpOp::Uge,
            CmpOp::Ule => CmpOp::Ugt,
            CmpOp::Ugt => CmpOp::Ule,
            CmpOp::Uge => CmpOp::Ult,
        }
    }
}

/// Integer width conversions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastOp {
    Zext,
    Sext,
    Trunc,
}

impl CastOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::Trunc => "trunc",
        }
    }
}

/// Runtime intrinsics. `Out`/`In` are the benchmark I/O channel (the thesis'
/// serial-port I/O manager thread); the rest are the Twill runtime primitives
/// inserted by the DSWP pass and lowered to bus messages by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Intr {
    /// `out(v: i32)` — append a word to the program's output stream.
    Out,
    /// `in() -> i32` — read a word from the input stream; returns -1 at EOF.
    In,
    /// `enqueue(q, v)` — blocking produce onto FIFO queue `q`.
    Enqueue(QueueId),
    /// `dequeue(q) -> v` — blocking consume from FIFO queue `q`.
    Dequeue(QueueId),
    /// `raise(s, n)` — raise counting semaphore `s` by `n` (operand 0).
    SemRaise(SemId),
    /// `lower(s, n)` — lower semaphore `s` by `n`, blocking at zero.
    SemLower(SemId),
}

impl Intr {
    pub fn mnemonic(self) -> &'static str {
        match self {
            Intr::Out => "out",
            Intr::In => "in",
            Intr::Enqueue(_) => "enqueue",
            Intr::Dequeue(_) => "dequeue",
            Intr::SemRaise(_) => "raise",
            Intr::SemLower(_) => "lower",
        }
    }

    /// Intrinsics are all side-effecting (I/O or inter-thread communication)
    /// and must never be removed or reordered against each other.
    pub fn has_side_effect(self) -> bool {
        true
    }
}

/// Instruction opcode with embedded operands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Binary arithmetic: both operands share the result type.
    Bin(BinOp, Value, Value),
    /// Integer compare producing `i1`.
    Cmp(CmpOp, Value, Value),
    /// `select cond, a, b` — ternary without control flow.
    Select(Value, Value, Value),
    /// Width conversion; source value, result type is the instruction type.
    Cast(CastOp, Value),
    /// Load of the instruction's result type from an address.
    Load(Value),
    /// `store val, addr` (value type is the instruction's type; result Void).
    Store(Value, Value),
    /// `gep base, index, elem_size` — address arithmetic
    /// `base + index * elem_size`, kept symbolic for alias analysis.
    Gep(Value, Value, u32),
    /// Static stack allocation of `size` bytes, yielding a pointer. Only
    /// allowed in the entry block (the frontend guarantees this).
    Alloca(u32),
    /// Address of a module global.
    GlobalAddr(GlobalId),
    /// Address of a function (for indirect calls — thesis §7 extension).
    FuncAddr(FuncId),
    /// Direct call. The callee's signature determines arg/result types.
    Call(FuncId, Vec<Value>),
    /// Indirect call through a function address. The instruction's type is
    /// the assumed return type; argument checking happens at run time.
    CallIndirect(Value, Vec<Value>),
    /// Runtime intrinsic call.
    Intrin(Intr, Vec<Value>),
    /// SSA PHI: one incoming value per predecessor block.
    Phi(Vec<(BlockId, Value)>),
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on an `i1` value.
    CondBr(Value, BlockId, BlockId),
    /// Multi-way dispatch on an i32 value; lowered by the `lowerswitch` pass
    /// before PDG construction, mirroring the thesis' pass pipeline.
    Switch(Value, Vec<(i64, BlockId)>, BlockId),
    /// Function return.
    Ret(Option<Value>),
}

impl Op {
    /// Whether this opcode terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br(_) | Op::CondBr(..) | Op::Switch(..) | Op::Ret(_))
    }

    pub fn is_phi(&self) -> bool {
        matches!(self, Op::Phi(_))
    }

    /// Whether the instruction has observable side effects (memory writes,
    /// I/O, inter-thread communication, or possible traps) and therefore
    /// must not be removed even if its result is unused.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Op::Store(..) | Op::Intrin(..) => true,
            Op::Call(..) | Op::CallIndirect(..) => true, // refined by purity analysis
            Op::Bin(op, _, d) => op.can_trap() && !matches!(d, Value::Imm(v, _) if *v != 0),
            _ => false,
        }
    }

    /// Whether this instruction reads memory.
    pub fn reads_memory(&self) -> bool {
        matches!(self, Op::Load(_) | Op::Call(..) | Op::CallIndirect(..))
    }

    /// Whether this instruction writes memory.
    pub fn writes_memory(&self) -> bool {
        matches!(self, Op::Store(..) | Op::Call(..) | Op::CallIndirect(..))
    }

    /// Visit every value operand.
    pub fn for_each_value(&self, mut f: impl FnMut(Value)) {
        match self {
            Op::Bin(_, a, b) | Op::Cmp(_, a, b) | Op::Store(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Select(c, a, b) => {
                f(*c);
                f(*a);
                f(*b);
            }
            Op::Cast(_, a) | Op::CondBr(a, _, _) | Op::Switch(a, _, _) | Op::Load(a) => f(*a),
            Op::Gep(a, b, _) => {
                f(*a);
                f(*b);
            }
            Op::Call(_, args) | Op::Intrin(_, args) => {
                for a in args {
                    f(*a);
                }
            }
            Op::CallIndirect(t, args) => {
                f(*t);
                for a in args {
                    f(*a);
                }
            }
            Op::Phi(incoming) => {
                for (_, v) in incoming {
                    f(*v);
                }
            }
            Op::Ret(Some(v)) => f(*v),
            Op::Ret(None) | Op::Br(_) | Op::Alloca(_) | Op::GlobalAddr(_) | Op::FuncAddr(_) => {}
        }
    }

    /// Mutably visit every value operand (used by rewriting passes).
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Op::Bin(_, a, b) | Op::Cmp(_, a, b) | Op::Store(a, b) => {
                f(a);
                f(b);
            }
            Op::Select(c, a, b) => {
                f(c);
                f(a);
                f(b);
            }
            Op::Cast(_, a) | Op::CondBr(a, _, _) | Op::Switch(a, _, _) | Op::Load(a) => f(a),
            Op::Gep(a, b, _) => {
                f(a);
                f(b);
            }
            Op::Call(_, args) | Op::Intrin(_, args) => {
                for a in args {
                    f(a);
                }
            }
            Op::CallIndirect(t, args) => {
                f(t);
                for a in args {
                    f(a);
                }
            }
            Op::Phi(incoming) => {
                for (_, v) in incoming {
                    f(v);
                }
            }
            Op::Ret(Some(v)) => f(v),
            Op::Ret(None) | Op::Br(_) | Op::Alloca(_) | Op::GlobalAddr(_) | Op::FuncAddr(_) => {}
        }
    }

    /// Collect the operands into a vector (convenience for analyses).
    pub fn values(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_value(|v| out.push(v));
        out
    }

    /// Successor blocks of a terminator (empty for non-terminators/ret).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Op::Br(t) => vec![*t],
            Op::CondBr(_, t, e) => vec![*t, *e],
            Op::Switch(_, cases, default) => {
                let mut v: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                v.push(*default);
                v
            }
            _ => Vec::new(),
        }
    }

    /// Number of successor edges of a terminator (`successors().len()`
    /// without allocating).
    pub fn num_successors(&self) -> usize {
        match self {
            Op::Br(_) => 1,
            Op::CondBr(..) => 2,
            Op::Switch(_, cases, _) => cases.len() + 1,
            _ => 0,
        }
    }

    /// Mutably visit successor block ids of a terminator.
    pub fn for_each_successor_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            Op::Br(t) => f(t),
            Op::CondBr(_, t, e) => {
                f(t);
                f(e);
            }
            Op::Switch(_, cases, default) => {
                for (_, b) in cases {
                    f(b);
                }
                f(default);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_inverted_is_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Slt,
            CmpOp::Sle,
            CmpOp::Sgt,
            CmpOp::Sge,
            CmpOp::Ult,
            CmpOp::Ule,
            CmpOp::Ugt,
            CmpOp::Uge,
        ] {
            assert_eq!(op.inverted().inverted(), op);
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn terminators_report_successors() {
        let br = Op::Br(BlockId(3));
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(3)]);

        let cb = Op::CondBr(Value::imm1(true), BlockId(1), BlockId(2));
        assert_eq!(cb.successors(), vec![BlockId(1), BlockId(2)]);

        let sw = Op::Switch(Value::imm32(0), vec![(1, BlockId(4)), (2, BlockId(5))], BlockId(6));
        assert_eq!(sw.successors(), vec![BlockId(4), BlockId(5), BlockId(6)]);

        let ret = Op::Ret(None);
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn side_effects_classification() {
        assert!(Op::Store(Value::imm32(1), Value::imm32(8)).has_side_effect());
        assert!(Op::Intrin(Intr::Out, vec![Value::imm32(1)]).has_side_effect());
        assert!(!Op::Bin(BinOp::Add, Value::imm32(1), Value::imm32(2)).has_side_effect());
        // Division by a non-constant divisor may trap.
        assert!(Op::Bin(BinOp::SDiv, Value::imm32(1), Value::Arg(0)).has_side_effect());
        // Division by a known non-zero constant never traps.
        assert!(!Op::Bin(BinOp::SDiv, Value::imm32(8), Value::imm32(2)).has_side_effect());
        // Division by a literal zero traps (kept so the trap is preserved).
        assert!(Op::Bin(BinOp::SDiv, Value::imm32(8), Value::imm32(0)).has_side_effect());
    }

    #[test]
    fn operand_visitation_covers_all() {
        let op = Op::Select(Value::Arg(0), Value::imm32(1), Value::Inst(InstId(5)));
        assert_eq!(op.values().len(), 3);

        let mut op = Op::Phi(vec![(BlockId(0), Value::imm32(1)), (BlockId(1), Value::Arg(2))]);
        let mut n = 0;
        op.for_each_value_mut(|v| {
            *v = Value::imm32(0);
            n += 1;
        });
        assert_eq!(n, 2);
        assert_eq!(op.values(), vec![Value::imm32(0), Value::imm32(0)]);
    }

    #[test]
    fn successor_rewrite() {
        let mut op = Op::CondBr(Value::Arg(0), BlockId(1), BlockId(2));
        op.for_each_successor_mut(|b| *b = BlockId(b.0 + 10));
        assert_eq!(op.successors(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn commutativity_table() {
        assert!(BinOp::Add.commutative());
        assert!(BinOp::Xor.commutative());
        assert!(!BinOp::Sub.commutative());
        assert!(!BinOp::Shl.commutative());
        assert!(BinOp::SDiv.can_trap());
        assert!(!BinOp::Add.can_trap());
    }
}
