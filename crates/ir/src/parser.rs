//! Parser for the textual IR produced by [`crate::printer`].
//!
//! Intended primarily for tests (writing IR snippets directly) and for
//! snapshotting compiler phases; the grammar is exactly what the printer
//! emits. Instruction ids in the text are arbitrary labels and are renumbered
//! densely on parse.

use crate::entities::{BlockId, FuncId, InstId, QueueId, SemId};
use crate::inst::{BinOp, CastOp, CmpOp, Intr, Op, Value};
use crate::module::{Block, Function, Global, InstData, Module, QueueDecl, SemDecl, SrcLoc, Ty};
use std::collections::HashMap;

/// Parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn err<T>(line: usize, msg: impl Into<String>) -> PResult<T> {
    Err(ParseError { line, msg: msg.into() })
}

fn parse_ty(s: &str, line: usize) -> PResult<Ty> {
    match s {
        "void" => Ok(Ty::Void),
        "i1" => Ok(Ty::I1),
        "i8" => Ok(Ty::I8),
        "i16" => Ok(Ty::I16),
        "i32" => Ok(Ty::I32),
        "ptr" => Ok(Ty::Ptr),
        _ => err(line, format!("unknown type '{s}'")),
    }
}

fn strip_comment(l: &str) -> &str {
    match l.find(';') {
        Some(i) => &l[..i],
        None => l,
    }
    .trim()
}

struct FnCtx<'a> {
    /// textual inst name -> renumbered id
    ids: HashMap<String, InstId>,
    module_funcs: &'a [(String, Vec<Ty>, Ty)],
    globals: &'a [Global],
    line: usize,
}

impl FnCtx<'_> {
    fn value(&self, s: &str) -> PResult<Value> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix("%a") {
            if !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()) {
                let n: u16 = rest
                    .parse()
                    .map_err(|_| ParseError { line: self.line, msg: format!("bad arg '{s}'") })?;
                return Ok(Value::Arg(n));
            }
        }
        if let Some(rest) = s.strip_prefix('%') {
            let id = self
                .ids
                .get(rest)
                .ok_or_else(|| ParseError { line: self.line, msg: format!("undefined %{rest}") })?;
            return Ok(Value::Inst(*id));
        }
        // immediate: N:ty
        let (num, ty) = s
            .split_once(':')
            .ok_or_else(|| ParseError { line: self.line, msg: format!("bad immediate '{s}'") })?;
        let v: i64 = num
            .trim()
            .parse()
            .map_err(|_| ParseError { line: self.line, msg: format!("bad int '{num}'") })?;
        let t = parse_ty(ty.trim(), self.line)?;
        Ok(Value::Imm(v, t))
    }

    fn block(&self, s: &str) -> PResult<BlockId> {
        let s = s.trim();
        let rest = s
            .strip_prefix("bb")
            .ok_or_else(|| ParseError { line: self.line, msg: format!("bad block ref '{s}'") })?;
        let n: u32 = rest
            .parse()
            .map_err(|_| ParseError { line: self.line, msg: format!("bad block id '{s}'") })?;
        Ok(BlockId(n))
    }

    fn split_args(&self, s: &str) -> Vec<String> {
        // split on commas not inside brackets
        let mut out = Vec::new();
        let mut depth = 0usize;
        let mut cur = String::new();
        for ch in s.chars() {
            match ch {
                '[' | '(' => {
                    depth += 1;
                    cur.push(ch);
                }
                ']' | ')' => {
                    depth = depth.saturating_sub(1);
                    cur.push(ch);
                }
                ',' if depth == 0 => {
                    out.push(cur.trim().to_string());
                    cur.clear();
                }
                _ => cur.push(ch),
            }
        }
        if !cur.trim().is_empty() {
            out.push(cur.trim().to_string());
        }
        out
    }
}

fn parse_bin_mnemonic(s: &str) -> Option<BinOp> {
    BinOp::ALL.into_iter().find(|b| b.mnemonic() == s)
}

fn parse_cmp_mnemonic(s: &str) -> Option<CmpOp> {
    use CmpOp::*;
    [Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge].into_iter().find(|&c| c.mnemonic() == s)
}

/// Parse one instruction body (after any `%N = ` prefix was stripped).
fn parse_op(ctx: &FnCtx, body: &str) -> PResult<(Op, Ty)> {
    let line = ctx.line;
    let body = body.trim();
    let (head, rest) = match body.split_once(' ') {
        Some((h, r)) => (h, r.trim()),
        None => (body, ""),
    };

    if let Some(b) = parse_bin_mnemonic(head) {
        let (tys, args) = rest
            .split_once(' ')
            .ok_or_else(|| ParseError { line, msg: "bin needs type".into() })?;
        let ty = parse_ty(tys, line)?;
        let parts = ctx.split_args(args);
        if parts.len() != 2 {
            return err(line, "bin needs two operands");
        }
        return Ok((Op::Bin(b, ctx.value(&parts[0])?, ctx.value(&parts[1])?), ty));
    }

    match head {
        "cmp" => {
            let (pred, args) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "cmp needs predicate".into() })?;
            let c = parse_cmp_mnemonic(pred)
                .ok_or_else(|| ParseError { line, msg: format!("bad predicate '{pred}'") })?;
            let parts = ctx.split_args(args);
            if parts.len() != 2 {
                return err(line, "cmp needs two operands");
            }
            Ok((Op::Cmp(c, ctx.value(&parts[0])?, ctx.value(&parts[1])?), Ty::I1))
        }
        "select" => {
            let (tys, args) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "select needs type".into() })?;
            let ty = parse_ty(tys, line)?;
            let parts = ctx.split_args(args);
            if parts.len() != 3 {
                return err(line, "select needs three operands");
            }
            Ok((
                Op::Select(ctx.value(&parts[0])?, ctx.value(&parts[1])?, ctx.value(&parts[2])?),
                ty,
            ))
        }
        "zext" | "sext" | "trunc" => {
            let cast = match head {
                "zext" => CastOp::Zext,
                "sext" => CastOp::Sext,
                _ => CastOp::Trunc,
            };
            let (v, toty) = rest
                .split_once(" to ")
                .ok_or_else(|| ParseError { line, msg: "cast needs 'to <ty>'".into() })?;
            let ty = parse_ty(toty.trim(), line)?;
            Ok((Op::Cast(cast, ctx.value(v)?), ty))
        }
        "load" => {
            let (tys, a) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "load needs type".into() })?;
            let ty = parse_ty(tys, line)?;
            Ok((Op::Load(ctx.value(a)?), ty))
        }
        "store" => {
            let (tys, args) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "store needs type".into() })?;
            let ty = parse_ty(tys, line)?;
            let parts = ctx.split_args(args);
            if parts.len() != 2 {
                return err(line, "store needs value, addr");
            }
            Ok((Op::Store(ctx.value(&parts[0])?, ctx.value(&parts[1])?), ty))
        }
        "gep" => {
            let parts = ctx.split_args(rest);
            if parts.len() != 3 {
                return err(line, "gep needs base, index, size");
            }
            let sz: u32 =
                parts[2].parse().map_err(|_| ParseError { line, msg: "bad gep size".into() })?;
            Ok((Op::Gep(ctx.value(&parts[0])?, ctx.value(&parts[1])?, sz), Ty::Ptr))
        }
        "alloca" => {
            let sz: u32 =
                rest.parse().map_err(|_| ParseError { line, msg: "bad alloca size".into() })?;
            Ok((Op::Alloca(sz), Ty::Ptr))
        }
        "faddr" => {
            let name = rest.trim_start_matches('@');
            let fid = ctx
                .module_funcs
                .iter()
                .position(|(n, _, _)| n == name)
                .ok_or_else(|| ParseError { line, msg: format!("unknown func '@{name}'") })?;
            Ok((Op::FuncAddr(FuncId::new(fid)), Ty::Ptr))
        }
        "calli" => {
            let (tys, callrest) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "calli needs type".into() })?;
            let ty = parse_ty(tys, line)?;
            let callrest = callrest.trim();
            let open = callrest
                .find('(')
                .ok_or_else(|| ParseError { line, msg: "calli needs '('".into() })?;
            let target = ctx.value(callrest[..open].trim())?;
            let argstr = callrest[open + 1..]
                .strip_suffix(')')
                .ok_or_else(|| ParseError { line, msg: "calli needs ')'".into() })?;
            let mut args = Vec::new();
            for a in ctx.split_args(argstr) {
                args.push(ctx.value(&a)?);
            }
            Ok((Op::CallIndirect(target, args), ty))
        }
        "gaddr" => {
            let name = rest.trim_start_matches('@');
            let gid = ctx
                .globals
                .iter()
                .position(|g| g.name == name)
                .ok_or_else(|| ParseError { line, msg: format!("unknown global '@{name}'") })?;
            Ok((Op::GlobalAddr(crate::entities::GlobalId::new(gid)), Ty::Ptr))
        }
        "call" => {
            let (tys, callrest) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "call needs type".into() })?;
            let ty = parse_ty(tys, line)?;
            let callrest = callrest.trim();
            let open = callrest
                .find('(')
                .ok_or_else(|| ParseError { line, msg: "call needs '('".into() })?;
            let name = callrest[..open].trim().trim_start_matches('@');
            let argstr = callrest[open + 1..]
                .strip_suffix(')')
                .ok_or_else(|| ParseError { line, msg: "call needs ')'".into() })?;
            let fid = ctx
                .module_funcs
                .iter()
                .position(|(n, _, _)| n == name)
                .ok_or_else(|| ParseError { line, msg: format!("unknown func '@{name}'") })?;
            let mut args = Vec::new();
            for a in ctx.split_args(argstr) {
                args.push(ctx.value(&a)?);
            }
            Ok((Op::Call(FuncId::new(fid), args), ty))
        }
        "out" => Ok((Op::Intrin(Intr::Out, vec![ctx.value(rest)?]), Ty::Void)),
        "in" => Ok((Op::Intrin(Intr::In, vec![]), Ty::I32)),
        "enqueue" => {
            let parts = ctx.split_args(rest);
            if parts.len() != 2 {
                return err(line, "enqueue needs queue, value");
            }
            let q: u32 = parts[0]
                .strip_prefix('q')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseError { line, msg: "bad queue ref".into() })?;
            Ok((Op::Intrin(Intr::Enqueue(QueueId(q)), vec![ctx.value(&parts[1])?]), Ty::Void))
        }
        "dequeue" => {
            let (tys, qs) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "dequeue needs type".into() })?;
            let ty = parse_ty(tys, line)?;
            let q: u32 = qs
                .trim()
                .strip_prefix('q')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseError { line, msg: "bad queue ref".into() })?;
            Ok((Op::Intrin(Intr::Dequeue(QueueId(q)), vec![]), ty))
        }
        "raise" | "lower" => {
            let parts = ctx.split_args(rest);
            if parts.len() != 2 {
                return err(line, "sem op needs sem, count");
            }
            let s: u32 = parts[0]
                .strip_prefix("sem")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseError { line, msg: "bad sem ref".into() })?;
            let n = ctx.value(&parts[1])?;
            let intr =
                if head == "raise" { Intr::SemRaise(SemId(s)) } else { Intr::SemLower(SemId(s)) };
            Ok((Op::Intrin(intr, vec![n]), Ty::Void))
        }
        "phi" => {
            let (tys, args) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line, msg: "phi needs type".into() })?;
            let ty = parse_ty(tys, line)?;
            let mut incoming = Vec::new();
            for part in ctx.split_args(args) {
                let inner = part
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| ParseError { line, msg: format!("bad phi arm '{part}'") })?;
                let (b, v) = inner
                    .split_once(':')
                    .ok_or_else(|| ParseError { line, msg: "phi arm needs ':'".into() })?;
                incoming.push((ctx.block(b)?, ctx.value(v)?));
            }
            Ok((Op::Phi(incoming), ty))
        }
        "br" => Ok((Op::Br(ctx.block(rest)?), Ty::Void)),
        "condbr" => {
            let parts = ctx.split_args(rest);
            if parts.len() != 3 {
                return err(line, "condbr needs cond, then, else");
            }
            Ok((
                Op::CondBr(ctx.value(&parts[0])?, ctx.block(&parts[1])?, ctx.block(&parts[2])?),
                Ty::Void,
            ))
        }
        "switch" => {
            let parts = ctx.split_args(rest);
            if parts.len() < 2 {
                return err(line, "switch needs value and default");
            }
            let v = ctx.value(&parts[0])?;
            let mut cases = Vec::new();
            let mut default = None;
            for p in &parts[1..] {
                if let Some(d) = p.strip_prefix("default") {
                    default = Some(ctx.block(d.trim())?);
                } else {
                    let inner = p
                        .strip_prefix('[')
                        .and_then(|s| s.strip_suffix(']'))
                        .ok_or_else(|| ParseError { line, msg: format!("bad case '{p}'") })?;
                    let (k, b) = inner
                        .split_once(':')
                        .ok_or_else(|| ParseError { line, msg: "case needs ':'".into() })?;
                    let kv: i64 = k
                        .trim()
                        .parse()
                        .map_err(|_| ParseError { line, msg: "bad case value".into() })?;
                    cases.push((kv, ctx.block(b)?));
                }
            }
            let default =
                default.ok_or_else(|| ParseError { line, msg: "switch needs default".into() })?;
            Ok((Op::Switch(v, cases, default), Ty::Void))
        }
        "ret" => {
            if rest.is_empty() {
                Ok((Op::Ret(None), Ty::Void))
            } else {
                Ok((Op::Ret(Some(ctx.value(rest)?)), Ty::Void))
            }
        }
        _ => err(line, format!("unknown opcode '{head}'")),
    }
}

/// Parse a whole module from text.
pub fn parse_module(text: &str) -> PResult<Module> {
    let lines: Vec<&str> = text.lines().collect();
    let mut m = Module::new("parsed");

    // Pass A: collect function signatures so calls can forward-reference.
    let mut sigs: Vec<(String, Vec<Ty>, Ty)> = Vec::new();
    for (lineno, raw) in lines.iter().enumerate() {
        let l = strip_comment(raw);
        if let Some(rest) = l.strip_prefix("func @") {
            let (name, tail) = rest
                .split_once('(')
                .ok_or_else(|| ParseError { line: lineno + 1, msg: "func needs '('".into() })?;
            let close = tail
                .find(')')
                .ok_or_else(|| ParseError { line: lineno + 1, msg: "func needs ')'".into() })?;
            let mut params = Vec::new();
            let ps = &tail[..close];
            if !ps.trim().is_empty() {
                for p in ps.split(',') {
                    params.push(parse_ty(p.trim(), lineno + 1)?);
                }
            }
            let after = &tail[close + 1..];
            let ret = match after.split_once("->") {
                Some((_, r)) => parse_ty(r.trim().trim_end_matches('{').trim(), lineno + 1)?,
                None => Ty::Void,
            };
            sigs.push((name.trim().to_string(), params, ret));
        }
    }

    // Pass B: module-level items + function bodies.
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let l = strip_comment(lines[i]);
        if l.is_empty() {
            i += 1;
            continue;
        }
        if let Some(rest) = l.strip_prefix("module") {
            if let (Some(a), Some(b)) = (rest.find('"'), rest.rfind('"')) {
                if b > a {
                    m.name = rest[a + 1..b].to_string();
                }
            }
            i += 1;
            continue;
        }
        if let Some(rest) = l.strip_prefix("queue ") {
            // queue qN <ty> x <depth>
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 4 || parts[2] != "x" {
                return err(lineno, "bad queue decl");
            }
            let width = parse_ty(parts[1], lineno)?;
            let depth: u32 = parts[3]
                .parse()
                .map_err(|_| ParseError { line: lineno, msg: "bad depth".into() })?;
            m.add_queue(QueueDecl { width, depth });
            i += 1;
            continue;
        }
        if let Some(rest) = l.strip_prefix("sem ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let mut max = 1;
            let mut init = 0;
            for p in &parts[1..] {
                if let Some(v) = p.strip_prefix("max=") {
                    max = v
                        .parse()
                        .map_err(|_| ParseError { line: lineno, msg: "bad max".into() })?;
                } else if let Some(v) = p.strip_prefix("init=") {
                    init = v
                        .parse()
                        .map_err(|_| ParseError { line: lineno, msg: "bad init".into() })?;
                }
            }
            m.add_sem(SemDecl { max, initial: init });
            i += 1;
            continue;
        }
        if let Some(rest) = l.strip_prefix("global @") {
            let (name, tail) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError { line: lineno, msg: "bad global".into() })?;
            let mut size = 0u32;
            let is_const = tail.contains(" const") || tail.contains("const ");
            for tok in tail.split_whitespace() {
                if let Some(v) = tok.strip_prefix("size=") {
                    size = v
                        .parse()
                        .map_err(|_| ParseError { line: lineno, msg: "bad size".into() })?;
                }
            }
            let mut init = Vec::new();
            match (tail.find('['), tail.rfind(']')) {
                (Some(a), Some(b)) if a < b => {
                    for h in tail[a + 1..b].split_whitespace() {
                        init.push(u8::from_str_radix(h, 16).map_err(|_| ParseError {
                            line: lineno,
                            msg: format!("bad hex byte '{h}'"),
                        })?);
                    }
                }
                (None, None) => {}
                _ => return err(lineno, "unbalanced '[ ]' in global initializer"),
            }
            m.add_global(Global { name: name.to_string(), size, init, addr: 0, is_const });
            i += 1;
            continue;
        }
        if l.starts_with("func @") {
            let fidx = m.funcs.len();
            let (name, params, ret) = sigs[fidx].clone();
            let mut f = Function::new(name, params, ret);

            // Scan to the closing '}' collecting body lines (raw text kept
            // alongside so block-name comments survive the round trip).
            let mut body: Vec<(usize, String, String)> = Vec::new();
            i += 1;
            while i < lines.len() {
                let bl = strip_comment(lines[i]);
                if bl == "}" {
                    break;
                }
                if !bl.is_empty() {
                    body.push((i + 1, bl.to_string(), lines[i].trim().to_string()));
                }
                i += 1;
            }
            if i >= lines.len() {
                return err(lineno, "unterminated function body");
            }
            i += 1; // consume '}'

            // First sub-pass: allocate blocks & instruction ids.
            let mut ids: HashMap<String, InstId> = HashMap::new();
            let mut next_inst = 0u32;
            let mut cur_block: Option<BlockId> = None;
            let mut placements: Vec<(BlockId, InstId, usize, String)> = Vec::new();
            for (ln, bl, raw) in &body {
                if bl.starts_with("bb") && bl.ends_with(':') {
                    let n: u32 = bl[2..bl.len() - 1]
                        .parse()
                        .map_err(|_| ParseError { line: *ln, msg: "bad block header".into() })?;
                    while f.blocks.len() <= n as usize {
                        f.blocks.push(Block::default());
                    }
                    // Preserve the block name from the trailing comment.
                    if let Some(cpos) = raw.find(';') {
                        f.blocks[n as usize].name = raw[cpos + 1..].trim().to_string();
                    }
                    cur_block = Some(BlockId(n));
                    continue;
                }
                let b = cur_block
                    .ok_or_else(|| ParseError { line: *ln, msg: "inst outside block".into() })?;
                let id = InstId(next_inst);
                next_inst += 1;
                // Does it define a textual id?
                let bodytext = if let Some((lhs, rhs)) = bl.split_once('=') {
                    let lhs = lhs.trim();
                    if let Some(name) = lhs.strip_prefix('%') {
                        if !name.is_empty()
                            && name.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '.')
                        {
                            ids.insert(name.to_string(), id);
                            rhs.trim().to_string()
                        } else {
                            bl.clone()
                        }
                    } else {
                        bl.clone()
                    }
                } else {
                    bl.clone()
                };
                let _ = raw;
                // Split off a trailing ` !N` source-location marker (the
                // printer's loc syntax; `;` comments never survive to here).
                let (bodytext, loc) = match bodytext.rsplit_once(" !") {
                    Some((pre, num))
                        if !num.is_empty() && num.bytes().all(|c| c.is_ascii_digit()) =>
                    {
                        let n: u32 = num.parse().map_err(|_| ParseError {
                            line: *ln,
                            msg: "bad source-location marker".into(),
                        })?;
                        (pre.trim_end().to_string(), SrcLoc::new(n))
                    }
                    _ => (bodytext, SrcLoc::NONE),
                };
                placements.push((b, id, *ln, bodytext));
                f.insts.push(InstData { op: Op::Ret(None), ty: Ty::Void }); // placeholder
                f.locs.push(loc); // parallel side table stays in sync
            }

            // Second sub-pass: parse each op now that all ids are known.
            for (b, id, ln, text) in placements {
                let ctx =
                    FnCtx { ids: ids.clone(), module_funcs: &sigs, globals: &m.globals, line: ln };
                let (op, ty) = parse_op(&ctx, &text)?;
                f.insts[id.index()] = InstData { op, ty };
                f.block_mut(b).insts.push(id);
            }
            f.entry = BlockId(0);
            m.add_func(f);
            continue;
        }
        return err(lineno, format!("unexpected line: '{l}'"));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    /// Also the seed of the mangled-text proptest (`tests/mangled_ir.rs`).
    const SAMPLE: &str = include_str!("../tests/data/sample.ir");

    #[test]
    fn parses_sample() {
        let m = parse_module(SAMPLE).unwrap();
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.queues.len(), 1);
        assert_eq!(m.sems[0].max, 2);
        assert_eq!(m.globals[0].init, vec![1, 2, 3, 4]);
        let main = m.func(m.find_func("main").unwrap());
        assert_eq!(main.blocks.len(), 3);
        assert_eq!(main.live_inst_count(), 14);
    }

    #[test]
    fn roundtrips_through_printer() {
        let m1 = parse_module(SAMPLE).unwrap();
        let text1 = print_module(&m1);
        let m2 = parse_module(&text1).unwrap();
        let text2 = print_module(&m2);
        assert_eq!(text1, text2);
    }

    #[test]
    fn source_locations_roundtrip() {
        let src = "func @f(i32) -> i32 {\nbb0:\n  %0 = add i32 %a0, 1:i32 !3\n  %1 = mul i32 %0, %0 !4\n  ret %1 !5\n}\n";
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        assert_eq!(f.loc(InstId(0)), SrcLoc::new(3));
        assert_eq!(f.loc(InstId(1)), SrcLoc::new(4));
        assert_eq!(f.loc(InstId(2)), SrcLoc::new(5));
        let text = print_module(&m);
        assert!(text.contains("add i32 %a0, 1:i32 !3"), "{text}");
        let m2 = parse_module(&text).unwrap();
        assert_eq!(print_module(&m2), text);
    }

    #[test]
    fn missing_locations_stay_absent() {
        let m = parse_module(SAMPLE).unwrap();
        let main = m.func(m.find_func("main").unwrap());
        for (_, i) in main.inst_ids_in_layout() {
            assert!(main.loc(i).is_none());
        }
        // And the printer emits no markers for them.
        assert!(!print_module(&m).contains(" !"));
    }

    #[test]
    fn phi_forward_reference_resolves() {
        let m = parse_module(SAMPLE).unwrap();
        let main = m.func(m.find_func("main").unwrap());
        // The phi in bb1 references %4 defined after it.
        let phi_id = main.block(BlockId(1)).insts[0];
        match &main.inst(phi_id).op {
            Op::Phi(inc) => {
                assert_eq!(inc.len(), 2);
                assert!(matches!(inc[1].1, Value::Inst(_)));
            }
            other => panic!("expected phi, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let bad = "func @f() -> i32 {\nbb0:\n  %0 = frobnicate i32 1:i32\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("frobnicate"));
    }

    #[test]
    fn error_on_undefined_value() {
        let bad = "func @f() -> i32 {\nbb0:\n  ret %9\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.msg.contains("undefined"));
    }

    #[test]
    fn error_on_close_bracket_before_open() {
        let e = parse_module("global @tab size=8 con]t [01 02\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("unbalanced"), "{}", e.msg);
    }

    #[test]
    fn switch_roundtrip() {
        let src = "func @f(i32) -> i32 {\nbb0:\n  switch %a0, [1: bb1], [2: bb2], default bb3\nbb1:\n  ret 1:i32\nbb2:\n  ret 2:i32\nbb3:\n  ret 0:i32\n}\n";
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        match &f.inst(f.block(BlockId(0)).insts[0]).op {
            Op::Switch(_, cases, d) => {
                assert_eq!(cases.len(), 2);
                assert_eq!(*d, BlockId(3));
            }
            _ => panic!("expected switch"),
        }
        let text = print_module(&m);
        let m2 = parse_module(&text).unwrap();
        assert_eq!(print_module(&m2), text);
    }
}
