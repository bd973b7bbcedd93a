//! Lowering from the mini-C AST to Twill IR.
//!
//! Follows the Clang -O0 strategy: every local variable (including
//! parameters) becomes an entry-block `alloca` with explicit loads/stores;
//! `mem2reg` in `twill-passes` rebuilds SSA afterwards. C semantics
//! implemented here:
//!
//! * integer promotions (char/short → int, value-preserving),
//! * usual arithmetic conversions (unsigned wins at equal rank),
//! * signedness-directed division/remainder/shift/compare selection,
//! * short-circuit `&&`/`||` and `?:` via control flow,
//! * pointer arithmetic scaled by element size (`gep`),
//! * array-to-pointer decay.
//!
//! Like the thesis' Twill/LegUp, recursion and function pointers are
//! compile errors.

use crate::ast::*;
use crate::parser::{eval_const, Parser};
use crate::{cerr, CError};
use std::collections::HashMap;
use twill_ir::{BlockId, CastOp, CmpOp, FuncBuilder, FuncId, Module, Op, Ty, Value};

/// Compile mini-C source text into a Twill IR module (globals laid out,
/// verified). Recursion is rejected, matching Twill/LegUp.
pub fn compile(name: &str, src: &str) -> Result<Module, CError> {
    compile_with(name, src, false)
}

/// Like [`compile`], optionally accepting recursive programs (the thesis'
/// §7 extension: recursion runs on the software master).
pub fn compile_with(name: &str, src: &str, allow_recursion: bool) -> Result<Module, CError> {
    let prog = Parser::new(src)?.parse_program()?;
    let mut m = lower_program(name, &prog)?;
    twill_ir::layout::assign_global_addrs(&mut m);
    let errs = twill_ir::verifier::verify_module(&m);
    if let Some(e) = errs.first() {
        return cerr(0, 0, format!("internal: lowering produced invalid IR: {e}"));
    }
    if !allow_recursion {
        check_no_recursion(&m)?;
    }
    Ok(m)
}

struct FuncSig {
    id: FuncId,
    ret: CTy,
    params: Vec<CTy>,
}

struct GlobalInfo {
    id: twill_ir::GlobalId,
    ty: CTy,
}

/// A typed rvalue.
#[derive(Clone)]
struct RV {
    v: Value,
    ty: CTy,
}

/// A typed lvalue (address + element type).
struct LV {
    addr: Value,
    ty: CTy,
}

fn lower_program(name: &str, prog: &Program) -> Result<Module, CError> {
    let mut m = Module::new(name);

    // Globals first (addresses resolved lazily through GlobalAddr).
    let mut globals: HashMap<String, GlobalInfo> = HashMap::new();
    for g in &prog.globals {
        let size = g.ty.size().max(1);
        let init = global_init_bytes(&g.ty, g.init.as_ref(), g.line)?;
        let id = m.add_global(twill_ir::Global {
            name: g.name.clone(),
            size,
            init,
            addr: 0,
            is_const: g.is_const && g.init.is_some(),
        });
        if globals.insert(g.name.clone(), GlobalInfo { id, ty: g.ty.clone() }).is_some() {
            return cerr(g.line, 0, format!("duplicate global '{}'", g.name));
        }
    }

    // Declare all functions (so calls can be order-independent).
    let mut sigs: HashMap<String, FuncSig> = HashMap::new();
    for f in &prog.funcs {
        let id = m.add_func(twill_ir::Function::new(
            f.name.clone(),
            f.params.iter().map(|(t, _)| t.decayed().ir()).collect(),
            f.ret.ir(),
        ));
        if sigs
            .insert(
                f.name.clone(),
                FuncSig {
                    id,
                    ret: f.ret.clone(),
                    params: f.params.iter().map(|(t, _)| t.decayed()).collect(),
                },
            )
            .is_some()
        {
            return cerr(f.line, 0, format!("duplicate function '{}'", f.name));
        }
    }
    // Every partition's thread table is rooted at `main`, and the DSWP
    // extractor and all three simulators start it with no arguments.
    match prog.funcs.iter().find(|f| f.name == "main") {
        None => return cerr(1, 1, "program has no 'main' function"),
        Some(f) if !f.params.is_empty() => {
            return cerr(f.line, 0, "'main' must take no parameters")
        }
        Some(_) => {}
    }

    // Lower bodies.
    for f in &prog.funcs {
        let built = {
            let mut ctx = Lower {
                sigs: &sigs,
                globals: &globals,
                b: FuncBuilder::from_function(std::mem::replace(
                    &mut m.funcs[sigs[&f.name].id.index()],
                    twill_ir::Function::new("", vec![], Ty::Void),
                )),
                scopes: Vec::new(),
                breaks: Vec::new(),
                continues: Vec::new(),
                ret_ty: f.ret.clone(),
            };
            ctx.lower_func(f)?;
            ctx.b.finish()
        };
        m.funcs[sigs[&f.name].id.index()] = built;
    }

    Ok(m)
}

fn global_init_bytes(ty: &CTy, init: Option<&Init>, line: usize) -> Result<Vec<u8>, CError> {
    fn scalar_bytes(ty: &CTy, v: i64) -> Vec<u8> {
        match ty.size() {
            1 => vec![v as u8],
            2 => (v as u16).to_le_bytes().to_vec(),
            _ => (v as u32).to_le_bytes().to_vec(),
        }
    }
    match (ty, init) {
        (_, None) => Ok(Vec::new()),
        (CTy::Array(elem, n), Some(Init::List(es))) => {
            if es.len() > *n as usize {
                return cerr(line, 0, "too many initializers");
            }
            let mut out = Vec::new();
            for e in es {
                let v = eval_const(e).ok_or_else(|| CError {
                    line,
                    col: 0,
                    msg: "global initializer must be constant".into(),
                })?;
                out.extend(scalar_bytes(elem, v));
            }
            Ok(out)
        }
        (CTy::Int { .. }, Some(Init::Scalar(e))) => {
            let v = eval_const(e).ok_or_else(|| CError {
                line,
                col: 0,
                msg: "global initializer must be constant".into(),
            })?;
            Ok(scalar_bytes(ty, v))
        }
        _ => cerr(line, 0, "unsupported global initializer"),
    }
}

fn check_no_recursion(m: &Module) -> Result<(), CError> {
    // DFS cycle detection over direct calls.
    let n = m.funcs.len();
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (fi, f) in m.funcs.iter().enumerate() {
        for (_, iid) in f.inst_ids_in_layout() {
            if let Op::Call(c, _) = &f.inst(iid).op {
                callees[fi].push(c.index());
            }
        }
    }
    let mut state = vec![0u8; n];
    fn dfs(v: usize, callees: &[Vec<usize>], state: &mut [u8], m: &Module) -> Result<(), CError> {
        state[v] = 1;
        for &c in &callees[v] {
            if state[c] == 1 {
                return cerr(
                    0,
                    0,
                    format!("recursion involving '{}' is not supported by Twill", m.funcs[c].name),
                );
            }
            if state[c] == 0 {
                dfs(c, callees, state, m)?;
            }
        }
        state[v] = 2;
        Ok(())
    }
    for v in 0..n {
        if state[v] == 0 {
            dfs(v, &callees, &mut state, m)?;
        }
    }
    Ok(())
}

struct Var {
    addr: Value,
    ty: CTy,
}

struct Lower<'a> {
    sigs: &'a HashMap<String, FuncSig>,
    globals: &'a HashMap<String, GlobalInfo>,
    b: FuncBuilder,
    scopes: Vec<HashMap<String, Var>>,
    breaks: Vec<BlockId>,
    continues: Vec<BlockId>,
    ret_ty: CTy,
}

impl Lower<'_> {
    fn lower_func(&mut self, f: &FuncDef) -> Result<(), CError> {
        let entry = self.b.create_block("entry");
        self.b.func.entry = entry;
        self.b.switch_to(entry);
        // Prologue instructions attribute to the function definition line.
        self.b.set_line(f.line);
        self.scopes.push(HashMap::new());

        // Spill parameters to allocas (mem2reg promotes them back).
        for (i, (pty, pname)) in f.params.iter().enumerate() {
            let pty = pty.decayed();
            let slot = self.b.alloca(pty.size().max(4));
            self.b.store(Value::Arg(i as u16), slot);
            self.scopes.last_mut().unwrap().insert(pname.clone(), Var { addr: slot, ty: pty });
        }

        self.lower_stmts(&f.body)?;

        // Implicit return (C allows falling off the end).
        if !self.b.is_terminated() {
            if self.ret_ty == CTy::Void {
                self.b.ret(None);
            } else {
                self.b.ret(Some(Value::Imm(0, self.ret_ty.ir())));
            }
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CError> {
        for s in stmts {
            if self.b.is_terminated() {
                // Dead code after return/break: emit into a fresh
                // unreachable block (cleaned by simplifycfg).
                let dead = self.b.create_block("dead");
                self.b.switch_to(dead);
            }
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    /// The source line a statement starts on (containers defer to their
    /// contents).
    fn stmt_line(s: &Stmt) -> Option<usize> {
        match s {
            Stmt::Block(_) | Stmt::DeclGroup(_) => None,
            Stmt::Expr(e) => Some(e.line()),
            Stmt::Decl(.., line)
            | Stmt::Return(.., line)
            | Stmt::If(.., line)
            | Stmt::While(.., line)
            | Stmt::DoWhile(.., line)
            | Stmt::For(.., line)
            | Stmt::Switch(.., line)
            | Stmt::Break(line)
            | Stmt::Continue(line) => Some(*line),
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), CError> {
        if let Some(line) = Self::stmt_line(s) {
            self.b.set_line(line);
        }
        match s {
            Stmt::Block(items) => {
                self.scopes.push(HashMap::new());
                self.lower_stmts(items)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::DeclGroup(items) => self.lower_stmts(items),
            Stmt::Decl(ty, name, init, line) => self.lower_decl(ty, name, init.as_ref(), *line),
            Stmt::Expr(e) => {
                self.rvalue(e)?;
                Ok(())
            }
            Stmt::Return(v, line) => {
                match (v, self.ret_ty.clone()) {
                    (None, CTy::Void) => self.b.ret(None),
                    (Some(_), CTy::Void) => return cerr(*line, 0, "void function returns a value"),
                    (None, _) => return cerr(*line, 0, "non-void function must return a value"),
                    (Some(e), rt) => {
                        let rv = self.rvalue(e)?;
                        let conv = self.convert(rv, &rt);
                        self.b.ret(Some(conv.v));
                    }
                }
                Ok(())
            }
            Stmt::If(cond, then_s, else_s, _) => {
                let c = self.lower_condition(cond)?;
                let then_b = self.b.create_block("if.then");
                let else_b = self.b.create_block("if.else");
                let end_b = self.b.create_block("if.end");
                self.b.cond_br(c, then_b, if else_s.is_empty() { end_b } else { else_b });
                self.b.switch_to(then_b);
                self.scopes.push(HashMap::new());
                self.lower_stmts(then_s)?;
                self.scopes.pop();
                if !self.b.is_terminated() {
                    self.b.br(end_b);
                }
                if !else_s.is_empty() {
                    self.b.switch_to(else_b);
                    self.scopes.push(HashMap::new());
                    self.lower_stmts(else_s)?;
                    self.scopes.pop();
                    if !self.b.is_terminated() {
                        self.b.br(end_b);
                    }
                } else {
                    // else block unused; make it branch to end so it's
                    // trivially removable.
                    self.b.switch_to(else_b);
                    self.b.br(end_b);
                }
                self.b.switch_to(end_b);
                Ok(())
            }
            Stmt::While(cond, body, _) => {
                let head = self.b.create_block("while.head");
                let body_b = self.b.create_block("while.body");
                let end_b = self.b.create_block("while.end");
                self.b.br(head);
                self.b.switch_to(head);
                let c = self.lower_condition(cond)?;
                self.b.cond_br(c, body_b, end_b);
                self.b.switch_to(body_b);
                self.breaks.push(end_b);
                self.continues.push(head);
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.continues.pop();
                self.breaks.pop();
                if !self.b.is_terminated() {
                    self.b.br(head);
                }
                self.b.switch_to(end_b);
                Ok(())
            }
            Stmt::DoWhile(body, cond, _) => {
                let body_b = self.b.create_block("do.body");
                let cond_b = self.b.create_block("do.cond");
                let end_b = self.b.create_block("do.end");
                self.b.br(body_b);
                self.b.switch_to(body_b);
                self.breaks.push(end_b);
                self.continues.push(cond_b);
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.continues.pop();
                self.breaks.pop();
                if !self.b.is_terminated() {
                    self.b.br(cond_b);
                }
                self.b.switch_to(cond_b);
                let c = self.lower_condition(cond)?;
                self.b.cond_br(c, body_b, end_b);
                self.b.switch_to(end_b);
                Ok(())
            }
            Stmt::For(init, cond, step, body, _) => {
                self.scopes.push(HashMap::new());
                self.lower_stmts(init)?;
                let head = self.b.create_block("for.head");
                let body_b = self.b.create_block("for.body");
                let step_b = self.b.create_block("for.step");
                let end_b = self.b.create_block("for.end");
                self.b.br(head);
                self.b.switch_to(head);
                match cond {
                    Some(c) => {
                        let cv = self.lower_condition(c)?;
                        self.b.cond_br(cv, body_b, end_b);
                    }
                    None => self.b.br(body_b),
                }
                self.b.switch_to(body_b);
                self.breaks.push(end_b);
                self.continues.push(step_b);
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.continues.pop();
                self.breaks.pop();
                if !self.b.is_terminated() {
                    self.b.br(step_b);
                }
                self.b.switch_to(step_b);
                if let Some(st) = step {
                    self.rvalue(st)?;
                }
                self.b.br(head);
                self.b.switch_to(end_b);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Switch(scrut, arms, line) => self.lower_switch(scrut, arms, *line),
            Stmt::Break(line) => {
                let Some(&target) = self.breaks.last() else {
                    return cerr(*line, 0, "break outside loop/switch");
                };
                self.b.br(target);
                Ok(())
            }
            Stmt::Continue(line) => {
                let Some(&target) = self.continues.last() else {
                    return cerr(*line, 0, "continue outside loop");
                };
                self.b.br(target);
                Ok(())
            }
        }
    }

    fn lower_decl(
        &mut self,
        ty: &CTy,
        name: &str,
        init: Option<&Init>,
        line: usize,
    ) -> Result<(), CError> {
        let size = ty.size().max(4);
        // Allocas must live in the entry block: emit there, keep current
        // position.
        let cur = self.b.current_block();
        let entry = self.b.func.entry;
        let addr = if cur == entry {
            self.b.alloca(size)
        } else {
            // Insert the alloca at the end of entry's leading alloca run.
            let id = self.b.func.create_inst_at(Op::Alloca(size), Ty::Ptr, self.b.cur_loc());
            let lead = self
                .b
                .func
                .block(entry)
                .insts
                .iter()
                .take_while(|&&i| matches!(self.b.func.inst(i).op, Op::Alloca(_)))
                .count();
            self.b.func.block_mut(entry).insts.insert(lead, id);
            Value::Inst(id)
        };
        self.scopes.last_mut().unwrap().insert(name.to_string(), Var { addr, ty: ty.clone() });
        match (init, ty) {
            (None, _) => {}
            (Some(Init::Scalar(e)), _) => {
                let rv = self.rvalue(e)?;
                let conv = self.convert(rv, &ty.decayed());
                self.b.store(conv.v, addr);
            }
            (Some(Init::List(es)), CTy::Array(elem, n)) => {
                if es.len() > *n as usize {
                    return cerr(line, 0, "too many initializers");
                }
                for (i, e) in es.iter().enumerate() {
                    let rv = self.rvalue(e)?;
                    let conv = self.convert(rv, elem);
                    let slot = self.b.gep(addr, Value::imm32(i as i64), elem.size());
                    self.b.store(conv.v, slot);
                }
            }
            (Some(Init::List(_)), _) => return cerr(line, 0, "list initializer on scalar"),
        }
        Ok(())
    }

    fn lower_switch(
        &mut self,
        scrut: &Expr,
        arms: &[SwitchArm],
        _line: usize,
    ) -> Result<(), CError> {
        let sv = self.rvalue(scrut)?;
        let sv = self.promote(sv);
        let end_b = self.b.create_block("switch.end");
        // One block per arm; fallthrough = branch to next arm's block.
        let arm_blocks: Vec<BlockId> =
            (0..arms.len()).map(|i| self.b.create_block(format!("case.{i}"))).collect();
        let mut cases = Vec::new();
        let mut default = end_b;
        for (i, arm) in arms.iter().enumerate() {
            match arm.value {
                Some(v) => cases.push((v, arm_blocks[i])),
                None => default = arm_blocks[i],
            }
        }
        self.b.switch(sv.v, cases, default);
        self.breaks.push(end_b);
        for (i, arm) in arms.iter().enumerate() {
            self.b.switch_to(arm_blocks[i]);
            self.scopes.push(HashMap::new());
            self.lower_stmts(&arm.body)?;
            self.scopes.pop();
            if !self.b.is_terminated() {
                // Fallthrough to the next arm, or exit.
                let next = arm_blocks.get(i + 1).copied().unwrap_or(end_b);
                self.b.br(next);
            }
        }
        self.breaks.pop();
        self.b.switch_to(end_b);
        Ok(())
    }

    // ---- expressions ----

    fn find_var(&self, name: &str) -> Option<&Var> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Evaluate as condition (`i1`).
    fn lower_condition(&mut self, e: &Expr) -> Result<Value, CError> {
        let rv = self.rvalue(e)?;
        Ok(self.tobool(rv))
    }

    fn tobool(&mut self, rv: RV) -> Value {
        let ity = rv.ty.decayed().ir();
        if ity == Ty::I1 {
            return rv.v;
        }
        self.b.cmp(CmpOp::Ne, rv.v, Value::Imm(0, ity))
    }

    /// Integer promotion: char/short → int (sign- or zero-extended).
    fn promote(&mut self, rv: RV) -> RV {
        match &rv.ty {
            CTy::Int { bits, signed } if *bits < 32 => {
                let op = if *signed { CastOp::Sext } else { CastOp::Zext };
                let v = self.b.cast(op, rv.v, Ty::I32);
                RV { v, ty: CTy::Int { bits: 32, signed: true } }
            }
            _ => rv,
        }
    }

    /// Convert an rvalue to the target C type (for assignment/args/return).
    fn convert(&mut self, rv: RV, to: &CTy) -> RV {
        let from_ir = rv.ty.decayed().ir();
        let to_ir = to.decayed().ir();
        if from_ir == to_ir {
            return RV { v: rv.v, ty: to.clone() };
        }
        let v = match (from_ir.bits(), to_ir.bits()) {
            (f, t) if f > t => self.b.cast(CastOp::Trunc, rv.v, to_ir),
            (f, t) if f < t => {
                let signed = matches!(&rv.ty, CTy::Int { signed: true, .. });
                self.b.cast(if signed { CastOp::Sext } else { CastOp::Zext }, rv.v, to_ir)
            }
            // Same width, different IR type (i32 <-> ptr).
            _ => self.b.cast(CastOp::Zext, rv.v, to_ir),
        };
        RV { v, ty: to.clone() }
    }

    /// Compute the lvalue (address) of an expression.
    fn lvalue(&mut self, e: &Expr) -> Result<LV, CError> {
        self.b.set_line(e.line());
        match e {
            Expr::Ident(name, line) => {
                if let Some(var) = self.find_var(name) {
                    return Ok(LV { addr: var.addr, ty: var.ty.clone() });
                }
                if let Some(g) = self.globals.get(name) {
                    let id = g.id;
                    let ty = g.ty.clone();
                    let addr = self.b.global_addr(id);
                    return Ok(LV { addr, ty });
                }
                if self.sigs.contains_key(name) {
                    return cerr(*line, 0, format!("function '{name}' is not assignable"));
                }
                cerr(*line, 0, format!("unknown variable '{name}'"))
            }
            Expr::Index(base, idx, _) => {
                let base_rv = self.rvalue(base)?;
                let elem = base_rv.ty.pointee().cloned().ok_or_else(|| CError {
                    line: e.line(),
                    col: 0,
                    msg: "indexing a non-pointer".into(),
                })?;
                let idx_rv = self.rvalue(idx)?;
                let idx_rv = self.promote(idx_rv);
                let addr = self.b.gep(base_rv.v, idx_rv.v, elem.size());
                Ok(LV { addr, ty: elem })
            }
            Expr::Un(UnKind::Deref, p, line) => {
                let rv = self.rvalue(p)?;
                let elem = rv.ty.pointee().cloned().ok_or_else(|| CError {
                    line: *line,
                    col: 0,
                    msg: "dereferencing a non-pointer".into(),
                })?;
                Ok(LV { addr: rv.v, ty: elem })
            }
            other => cerr(other.line(), 0, "expression is not assignable"),
        }
    }

    fn load_lv(&mut self, lv: &LV) -> RV {
        match &lv.ty {
            CTy::Array(..) => {
                // Arrays decay: the lvalue address *is* the value.
                RV { v: lv.addr, ty: lv.ty.decayed() }
            }
            ty => {
                let v = self.b.load(lv.addr, ty.ir());
                RV { v, ty: ty.clone() }
            }
        }
    }

    fn rvalue(&mut self, e: &Expr) -> Result<RV, CError> {
        self.b.set_line(e.line());
        match e {
            Expr::IntLit(v, _) => Ok(RV { v: Value::imm32(*v), ty: CTy::INT }),
            Expr::Ident(name, _)
                if self.find_var(name).is_none()
                    && !self.globals.contains_key(name)
                    && self.sigs.contains_key(name) =>
            {
                // A function name in value position decays to its address
                // (thesis §7 extension: function pointers).
                let id = self.sigs[name].id;
                let v = self.b.emit(Op::FuncAddr(id), Ty::Ptr);
                Ok(RV { v, ty: CTy::Ptr(Box::new(CTy::Void)) })
            }
            Expr::Ident(..) | Expr::Index(..) | Expr::Un(UnKind::Deref, _, _) => {
                let lv = self.lvalue(e)?;
                Ok(self.load_lv(&lv))
            }
            Expr::Un(UnKind::Addr, inner, _) => {
                let lv = self.lvalue(inner)?;
                Ok(RV { v: lv.addr, ty: CTy::Ptr(Box::new(lv.ty.decayed())) })
            }
            Expr::Un(UnKind::Neg, inner, _) => {
                let rv = self.rvalue(inner)?;
                let rv = self.promote(rv);
                let v = self.b.sub(Value::imm32(0), rv.v);
                Ok(RV { v, ty: rv.ty })
            }
            Expr::Un(UnKind::BitNot, inner, _) => {
                let rv = self.rvalue(inner)?;
                let rv = self.promote(rv);
                let v = self.b.xor(rv.v, Value::imm32(-1));
                Ok(RV { v, ty: rv.ty })
            }
            Expr::Un(UnKind::LogNot, inner, _) => {
                let rv = self.rvalue(inner)?;
                let ity = rv.ty.decayed().ir();
                let c = self.b.cmp(CmpOp::Eq, rv.v, Value::Imm(0, ity));
                let v = self.b.cast(CastOp::Zext, c, Ty::I32);
                Ok(RV { v, ty: CTy::INT })
            }
            Expr::Cast(to, inner, _) => {
                let rv = self.rvalue(inner)?;
                Ok(self.convert(rv, to))
            }
            Expr::Bin(BinKind::LAnd, a, b, _) => self.lower_short_circuit(a, b, true),
            Expr::Bin(BinKind::LOr, a, b, _) => self.lower_short_circuit(a, b, false),
            Expr::Bin(kind, a, b, line) => {
                let ra = self.rvalue(a)?;
                let rb = self.rvalue(b)?;
                self.lower_arith(*kind, ra, rb, *line)
            }
            Expr::Ternary(c, t, f, _) => {
                let cond = self.lower_condition(c)?;
                let then_b = self.b.create_block("tern.then");
                let else_b = self.b.create_block("tern.else");
                let end_b = self.b.create_block("tern.end");
                self.b.cond_br(cond, then_b, else_b);
                self.b.switch_to(then_b);
                let tv = self.rvalue(t)?;
                let tv = self.promote(tv);
                let then_exit = self.b.current_block();
                self.b.br(end_b);
                self.b.switch_to(else_b);
                let fv = self.rvalue(f)?;
                let fv = self.convert(fv, &tv.ty);
                let else_exit = self.b.current_block();
                self.b.br(end_b);
                self.b.switch_to(end_b);
                let phi =
                    self.b.phi(tv.ty.decayed().ir(), vec![(then_exit, tv.v), (else_exit, fv.v)]);
                Ok(RV { v: phi, ty: tv.ty })
            }
            Expr::Assign(lhs, rhs, _) => {
                let rv = self.rvalue(rhs)?;
                let lv = self.lvalue(lhs)?;
                let conv = self.convert(rv, &lv.ty.decayed());
                self.b.store(conv.v, lv.addr);
                Ok(conv)
            }
            Expr::CompoundAssign(kind, lhs, rhs, line) => {
                let lv = self.lvalue(lhs)?;
                let cur = self.load_lv(&lv);
                let rv = self.rvalue(rhs)?;
                let result = self.lower_arith(*kind, cur, rv, *line)?;
                let conv = self.convert(result, &lv.ty.decayed());
                self.b.store(conv.v, lv.addr);
                Ok(conv)
            }
            Expr::IncDec(is_inc, inner, is_post, line) => {
                let lv = self.lvalue(inner)?;
                let cur = self.load_lv(&lv);
                let one = RV { v: Value::imm32(1), ty: CTy::INT };
                let kind = if *is_inc { BinKind::Add } else { BinKind::Sub };
                let next = self.lower_arith(kind, cur.clone(), one, *line)?;
                let conv = self.convert(next, &lv.ty.decayed());
                self.b.store(conv.v, lv.addr);
                Ok(if *is_post { cur } else { conv })
            }
            Expr::Comma(a, b, _) => {
                self.rvalue(a)?;
                self.rvalue(b)
            }
            Expr::Call(name, args, line) => self.lower_call(name, args, *line),
            Expr::CallPtr(target, args, line) => {
                // C's decay rule: `(*fp)(…)` ≡ `fp(…)` — dereferencing a
                // function pointer is the identity.
                let target = match &**target {
                    Expr::Un(UnKind::Deref, inner, _) => inner,
                    other => other,
                };
                let tv = self.rvalue(target)?;
                self.lower_indirect_call(tv, args, *line)
            }
        }
    }

    fn lower_short_circuit(&mut self, a: &Expr, b: &Expr, is_and: bool) -> Result<RV, CError> {
        let ca = self.lower_condition(a)?;
        let a_exit = self.b.current_block();
        let rhs_b = self.b.create_block(if is_and { "land.rhs" } else { "lor.rhs" });
        let end_b = self.b.create_block(if is_and { "land.end" } else { "lor.end" });
        if is_and {
            self.b.cond_br(ca, rhs_b, end_b);
        } else {
            self.b.cond_br(ca, end_b, rhs_b);
        }
        self.b.switch_to(rhs_b);
        let cb = self.lower_condition(b)?;
        let b_exit = self.b.current_block();
        self.b.br(end_b);
        self.b.switch_to(end_b);
        let short_val = Value::imm1(!is_and);
        let phi = self.b.phi(Ty::I1, vec![(a_exit, short_val), (b_exit, cb)]);
        let v = self.b.cast(CastOp::Zext, phi, Ty::I32);
        Ok(RV { v, ty: CTy::INT })
    }

    fn lower_arith(&mut self, kind: BinKind, ra: RV, rb: RV, line: usize) -> Result<RV, CError> {
        use BinKind::*;
        // Pointer arithmetic.
        let pa = ra.ty.is_pointerish();
        let pb = rb.ty.is_pointerish();
        if (pa || pb) && matches!(kind, Add | Sub) {
            if pa && pb {
                if kind != Sub {
                    return cerr(line, 0, "cannot add two pointers");
                }
                // Pointer difference in elements.
                let elem = ra.ty.pointee().unwrap().size().max(1);
                let diff = self.b.sub(ra.v, rb.v);
                let v = self.b.sdiv(diff, Value::imm32(elem as i64));
                return Ok(RV { v, ty: CTy::INT });
            }
            let (ptr, int, flip) = if pa { (ra, rb, false) } else { (rb, ra, true) };
            if kind == Sub && flip {
                return cerr(line, 0, "cannot subtract pointer from integer");
            }
            let elem = ptr.ty.pointee().cloned().unwrap();
            let int = self.promote(int);
            let idx = if kind == Sub { self.b.sub(Value::imm32(0), int.v) } else { int.v };
            let v = self.b.gep(ptr.v, idx, elem.size().max(1));
            return Ok(RV { v, ty: CTy::Ptr(Box::new(elem)) });
        }
        // Pointer comparisons: unsigned.
        if (pa || pb) && matches!(kind, Lt | Gt | Le | Ge | Eq | Ne) {
            let op = match kind {
                Lt => CmpOp::Ult,
                Gt => CmpOp::Ugt,
                Le => CmpOp::Ule,
                Ge => CmpOp::Uge,
                Eq => CmpOp::Eq,
                Ne => CmpOp::Ne,
                _ => unreachable!(),
            };
            let c = self.b.cmp(op, ra.v, rb.v);
            let v = self.b.cast(CastOp::Zext, c, Ty::I32);
            return Ok(RV { v, ty: CTy::INT });
        }

        // Usual arithmetic conversions: promote both; unsigned wins.
        let ra = self.promote(ra);
        let rb = self.promote(rb);
        let unsigned = matches!(ra.ty, CTy::Int { signed: false, .. })
            || matches!(rb.ty, CTy::Int { signed: false, .. });
        let res_ty = if unsigned { CTy::UINT } else { CTy::INT };

        let v = match kind {
            Add => self.b.add(ra.v, rb.v),
            Sub => self.b.sub(ra.v, rb.v),
            Mul => self.b.mul(ra.v, rb.v),
            Div => {
                if unsigned {
                    self.b.udiv(ra.v, rb.v)
                } else {
                    self.b.sdiv(ra.v, rb.v)
                }
            }
            Rem => {
                if unsigned {
                    self.b.urem(ra.v, rb.v)
                } else {
                    self.b.srem(ra.v, rb.v)
                }
            }
            And => self.b.and(ra.v, rb.v),
            Or => self.b.or(ra.v, rb.v),
            Xor => self.b.xor(ra.v, rb.v),
            Shl => self.b.shl(ra.v, rb.v),
            Shr => {
                // Shift semantics follow the (promoted) left operand.
                if matches!(ra.ty, CTy::Int { signed: false, .. }) {
                    self.b.lshr(ra.v, rb.v)
                } else {
                    self.b.ashr(ra.v, rb.v)
                }
            }
            Lt | Gt | Le | Ge | Eq | Ne => {
                let op = match (kind, unsigned) {
                    (Lt, false) => CmpOp::Slt,
                    (Gt, false) => CmpOp::Sgt,
                    (Le, false) => CmpOp::Sle,
                    (Ge, false) => CmpOp::Sge,
                    (Lt, true) => CmpOp::Ult,
                    (Gt, true) => CmpOp::Ugt,
                    (Le, true) => CmpOp::Ule,
                    (Ge, true) => CmpOp::Uge,
                    (Eq, _) => CmpOp::Eq,
                    (Ne, _) => CmpOp::Ne,
                    _ => unreachable!(),
                };
                let c = self.b.cmp(op, ra.v, rb.v);
                let v = self.b.cast(CastOp::Zext, c, Ty::I32);
                return Ok(RV { v, ty: CTy::INT });
            }
            LAnd | LOr => unreachable!("handled by lower_short_circuit"),
        };
        // For Shr of unsigned the result stays unsigned; generally result
        // signedness = unsigned flag.
        Ok(RV { v, ty: res_ty })
    }

    /// Indirect call through a computed target (thesis §7 extension).
    /// Targets must be `int`-returning; argument types are taken as-is
    /// (checked at run time against the actual callee).
    fn lower_indirect_call(
        &mut self,
        target: RV,
        args: &[Expr],
        line: usize,
    ) -> Result<RV, CError> {
        // Loose typing (C lets any object pointer hold a function address
        // in this dialect); reinterpret 32-bit targets as pointers.
        let tv = if target.ty.decayed().ir() == Ty::Ptr {
            target.v
        } else if target.ty.is_integer() {
            self.b.cast(twill_ir::CastOp::Zext, target.v, Ty::Ptr)
        } else {
            return cerr(line, 0, "indirect call target must be a pointer");
        };
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            let rv = self.rvalue(a)?;
            let rv = self.promote(rv);
            vals.push(rv.v);
        }
        let v = self.b.emit(Op::CallIndirect(tv, vals), Ty::I32);
        Ok(RV { v, ty: CTy::INT })
    }

    fn lower_call(&mut self, name: &str, args: &[Expr], line: usize) -> Result<RV, CError> {
        // Builtins standing in for the serial I/O manager.
        if name == "out" {
            if args.len() != 1 {
                return cerr(line, 0, "out() takes one argument");
            }
            let rv = self.rvalue(&args[0])?;
            let rv = self.promote(rv);
            self.b.out(rv.v);
            return Ok(RV { v: Value::imm32(0), ty: CTy::INT });
        }
        if name == "in" {
            if !args.is_empty() {
                return cerr(line, 0, "in() takes no arguments");
            }
            let v = self.b.input();
            return Ok(RV { v, ty: CTy::INT });
        }
        let Some(sig) = self.sigs.get(name) else {
            // A pointer variable called like a function: indirect call.
            if self.find_var(name).is_some() || self.globals.contains_key(name) {
                let tv = self.rvalue(&Expr::Ident(name.to_string(), line))?;
                let args_vec: Vec<Expr> = args.to_vec();
                return self.lower_indirect_call(tv, &args_vec, line);
            }
            return cerr(line, 0, format!("unknown function '{name}'"));
        };
        if sig.params.len() != args.len() {
            return cerr(
                line,
                0,
                format!("'{name}' expects {} arguments, got {}", sig.params.len(), args.len()),
            );
        }
        let mut vals = Vec::with_capacity(args.len());
        let param_tys = sig.params.clone();
        for (a, pty) in args.iter().zip(&param_tys) {
            let rv = self.rvalue(a)?;
            let conv = self.convert(rv, pty);
            vals.push(conv.v);
        }
        let (id, ret) = (sig.id, sig.ret.clone());
        let v = self.b.call(id, vals, ret.ir());
        Ok(RV { v, ty: ret })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, input: Vec<i32>) -> Vec<i32> {
        let m = compile("test", src).unwrap();
        let (out, _, _) = twill_ir::interp::run_main(&m, input, 50_000_000).unwrap();
        out
    }

    #[test]
    fn hello_arith() {
        let out = run("int main() { out(6 * 7); return 0; }", vec![]);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn locals_and_loops() {
        let out = run(
            "int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i; out(s); return s; }",
            vec![],
        );
        assert_eq!(out, vec![55]);
    }

    #[test]
    fn while_and_dowhile() {
        let out = run(
            r#"
int main() {
  int n = 5, f = 1;
  while (n > 1) { f *= n; n--; }
  out(f);
  int c = 0;
  do { c++; } while (c < 3);
  out(c);
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![120, 3]);
    }

    #[test]
    fn arrays_and_pointers() {
        let out = run(
            r#"
int tab[5];
int sum(int *p, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += p[i];
  return s;
}
int main() {
  for (int i = 0; i < 5; i++) tab[i] = i * i;
  out(sum(tab, 5));
  int *q = &tab[2];
  out(*q);
  out(q[1]);
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![30, 4, 9]);
    }

    #[test]
    fn unsigned_semantics() {
        let out = run(
            r#"
int main() {
  unsigned int x = 0xffffffff;
  out(x > 0);            // unsigned compare: true
  int y = -1;
  out(y > 0);            // signed compare: false
  out((int)(x >> 28));   // logical shift: 15
  out(y >> 28);          // arithmetic shift: -1
  unsigned char c = 200;
  out(c + 100);          // promoted: 300
  out((unsigned char)(c + 100)); // wrapped: 44
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![1, 0, 15, -1, 300, 44]);
    }

    #[test]
    fn short_circuit_effects() {
        let out = run(
            r#"
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
  int a = 0 && bump();
  out(g); // 0: rhs not evaluated
  int b = 1 && bump();
  out(g); // 1
  int c = 1 || bump();
  out(g); // still 1
  out(a); out(b); out(c);
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![0, 1, 1, 0, 1, 1]);
    }

    #[test]
    fn switch_with_fallthrough() {
        let src = r#"
int classify(int x) {
  int r = 0;
  switch (x) {
    case 0:
    case 1: r = 10; break;
    case 2: r = 20; // fallthrough
    case 3: r += 1; break;
    default: r = 99;
  }
  return r;
}
int main() { out(classify(in())); return 0; }
"#;
        assert_eq!(run(src, vec![0]), vec![10]);
        assert_eq!(run(src, vec![1]), vec![10]);
        assert_eq!(run(src, vec![2]), vec![21]);
        assert_eq!(run(src, vec![3]), vec![1]);
        assert_eq!(run(src, vec![7]), vec![99]);
    }

    #[test]
    fn ternary_and_incdec() {
        let out = run(
            r#"
int main() {
  int x = 5;
  int y = x++ + 1; // y=6, x=6
  int z = ++x * 2; // x=7, z=14
  out(y); out(z);
  out(x > 5 ? 100 : 200);
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![6, 14, 100]);
    }

    #[test]
    fn global_arrays_with_init() {
        let out = run(
            r#"
const int weights[4] = {10, 20, 30, 40};
short state[3];
int main() {
  int s = 0;
  for (int i = 0; i < 4; i++) s += weights[i];
  state[0] = (short)s;
  state[1] = -1;
  out(state[0]);
  out(state[1]);
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![100, -1]);
    }

    #[test]
    fn char_sign_behaviour() {
        let out = run(
            r#"
int main() {
  char c = 0xF0;           // -16 as signed char
  unsigned char u = 0xF0;  // 240
  out(c);
  out(u);
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![-16, 240]);
    }

    #[test]
    fn recursion_rejected() {
        let err =
            compile("t", "int f(int n) { return n ? f(n-1) : 0; } int main() { return f(3); }")
                .unwrap_err();
        assert!(err.msg.contains("recursion"), "{err}");
    }

    #[test]
    fn io_builtins() {
        let out =
            run("int main() { int a = in(); int b = in(); out(a + b); return 0; }", vec![30, 12]);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn break_continue() {
        let out = run(
            r#"
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) {
    if (i % 2) continue;
    if (i > 10) break;
    s += i;
  }
  out(s); // 0+2+4+6+8+10 = 30
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![30]);
    }

    #[test]
    fn nested_function_calls_and_args() {
        let out = run(
            r#"
int min(int a, int b) { return a < b ? a : b; }
int max(int a, int b) { return a > b ? a : b; }
int clamp(int x, int lo, int hi) { return max(lo, min(x, hi)); }
int main() {
  out(clamp(15, 0, 10));
  out(clamp(-5, 0, 10));
  out(clamp(7, 0, 10));
  return 0;
}
"#,
            vec![],
        );
        assert_eq!(out, vec![10, 0, 7]);
    }

    #[test]
    fn lowering_stamps_source_lines() {
        let src = "int main() {\n  int s = 0;\n  for (int i = 0; i < 4; i++)\n    s += i;\n  out(s);\n  return s;\n}\n";
        let m = compile("t", src).unwrap();
        let f = m.func(m.find_func("main").unwrap());
        // Every live instruction carries a location inside the source.
        let n_lines = src.lines().count() as u32;
        for (_, i) in f.inst_ids_in_layout() {
            let loc = f.loc(i);
            assert!(loc.is_some(), "unlocated instruction {:?}", f.inst(i).op);
            assert!(loc.line <= n_lines, "line {} out of range", loc.line);
        }
        // The loop body (line 4) and the output call (line 5) both appear.
        let lines = f.live_loc_lines();
        assert!(lines.contains(&4), "{lines:?}");
        assert!(lines.contains(&5), "{lines:?}");
    }

    #[test]
    fn full_pipeline_equivalence() {
        // Compile, run; then run the standard pass pipeline and re-run.
        let src = r#"
const int key[4] = {3, 1, 4, 1};
int scramble(int x, int r) {
  return ((x << 3) ^ (x >> 2)) + key[r & 3];
}
int main() {
  int x = in();
  for (int r = 0; r < 8; r++) {
    x = scramble(x, r);
  }
  out(x);
  return 0;
}
"#;
        let mut m = compile("t", src).unwrap();
        let (before, _, _) = twill_ir::interp::run_main(&m, vec![1234], 10_000_000).unwrap();
        twill_passes::run_standard_pipeline(&mut m, &Default::default());
        twill_passes::utils::assert_valid_ssa(&m);
        let (after, _, _) = twill_ir::interp::run_main(&m, vec![1234], 10_000_000).unwrap();
        assert_eq!(before, after);
    }
}
