//! The structured random mini-C program generator shared by the
//! differential fuzzer (`random_programs.rs`) and the compile-output
//! golden (`compile_golden.rs`). A seed fully determines the program.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Structured random program generator.
pub struct Gen {
    rng: StdRng,
    depth: u32,
    var_count: u32,
    loop_count: u32,
    /// Names of in-scope pure helper functions (all arity 2).
    helpers: Vec<String>,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            depth: 0,
            var_count: 0,
            loop_count: 0,
            helpers: Vec::new(),
        }
    }

    fn fresh_var(&mut self) -> String {
        self.var_count += 1;
        format!("v{}", self.var_count)
    }

    /// An expression over the in-scope variables (always defined behavior:
    /// divisors forced non-zero, shifts masked).
    fn expr(&mut self, vars: &[String], depth: u32) -> String {
        if depth == 0 || vars.is_empty() || self.rng.gen_bool(0.3) {
            if !vars.is_empty() && self.rng.gen_bool(0.7) {
                return vars[self.rng.gen_range(0..vars.len())].clone();
            }
            return format!("{}", self.rng.gen_range(-100..100));
        }
        let a = self.expr(vars, depth - 1);
        let b = self.expr(vars, depth - 1);
        if !self.helpers.is_empty() && self.rng.gen_bool(0.15) {
            let h = self.helpers[self.rng.gen_range(0..self.helpers.len())].clone();
            return format!("{h}({a}, {b})");
        }
        match self.rng.gen_range(0..10) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} / (({b} & 7) + 1))"),
            4 => format!("({a} % (({b} & 15) + 1))"),
            5 => format!("({a} ^ {b})"),
            6 => format!("({a} & {b})"),
            7 => format!("({a} | {b})"),
            8 => format!("({a} << ({b} & 7))"),
            _ => format!("({a} >> ({b} & 7))"),
        }
    }

    fn cond(&mut self, vars: &[String]) -> String {
        let a = self.expr(vars, 1);
        let b = self.expr(vars, 1);
        let op = ["<", ">", "<=", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
        format!("{a} {op} {b}")
    }

    /// A statement block writing only to `vars` and the global array.
    fn stmts(&mut self, vars: &mut Vec<String>, budget: &mut u32) -> String {
        let mut out = String::new();
        let n = self.rng.gen_range(1..4);
        for _ in 0..n {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            match self.rng.gen_range(0..8) {
                // new local
                0 | 1 => {
                    let e = self.expr(vars, 2);
                    let v = self.fresh_var();
                    out.push_str(&format!("int {v} = {e};\n"));
                    vars.push(v);
                }
                // assignment (never to a loop induction variable)
                2 | 3 => {
                    let targets: Vec<String> =
                        vars.iter().filter(|v| !v.starts_with("it")).cloned().collect();
                    if let Some(v) = self.pick(&targets) {
                        let e = self.expr(vars, 2);
                        out.push_str(&format!("{v} = {e};\n"));
                    }
                }
                // array store + load
                4 => {
                    let idx = self.expr(vars, 1);
                    let e = self.expr(vars, 2);
                    out.push_str(&format!("buf[({idx}) & 31] = {e};\n"));
                    let targets: Vec<String> =
                        vars.iter().filter(|v| !v.starts_with("it")).cloned().collect();
                    if let Some(v) = self.pick(&targets) {
                        let idx2 = self.expr(vars, 1);
                        out.push_str(&format!("{v} = {v} + buf[({idx2}) & 31];\n"));
                    }
                }
                // if/else
                5 => {
                    if self.depth < 2 {
                        self.depth += 1;
                        let c = self.cond(vars);
                        let mut tv = vars.clone();
                        let t = self.stmts(&mut tv, budget);
                        let mut ev = vars.clone();
                        let e = self.stmts(&mut ev, budget);
                        out.push_str(&format!("if ({c}) {{\n{t}}} else {{\n{e}}}\n"));
                        self.depth -= 1;
                    }
                }
                // bounded for loop
                6 => {
                    if self.depth < 2 && self.loop_count < 4 {
                        self.depth += 1;
                        self.loop_count += 1;
                        let iters = self.rng.gen_range(2..12);
                        self.var_count += 1;
                        let i = format!("it{}", self.var_count);
                        let mut bv = vars.clone();
                        bv.push(i.clone());
                        let body = self.stmts(&mut bv, budget);
                        out.push_str(&format!(
                            "for (int {i} = 0; {i} < {iters}; {i}++) {{\n{body}}}\n"
                        ));
                        self.depth -= 1;
                    }
                }
                // input read
                _ => {
                    let v = self.fresh_var();
                    out.push_str(&format!("int {v} = in();\n"));
                    vars.push(v);
                }
            }
        }
        out
    }

    fn pick(&mut self, vars: &[String]) -> Option<String> {
        if vars.is_empty() {
            None
        } else {
            Some(vars[self.rng.gen_range(0..vars.len())].clone())
        }
    }

    pub fn program(&mut self) -> String {
        let mut vars = vec!["seed".to_string()];
        let mut budget = 28u32;
        let body = self.stmts(&mut vars, &mut budget);
        let sink = self.expr(&vars, 2);
        format!(
            "int buf[32];\nint main() {{\nint seed = in();\n{body}out({sink});\nfor (int k = 0; k < 32; k++) out(buf[k]);\nreturn 0;\n}}\n"
        )
    }

    /// A pure two-argument helper: straight-line math over its params,
    /// optionally folded through a short bounded loop. Defined behavior by
    /// the same masking rules as `expr`.
    fn helper(&mut self, name: &str) -> String {
        let params = vec!["a".to_string(), "b".to_string()];
        let e1 = self.expr(&params, 2);
        if self.rng.gen_bool(0.5) {
            let iters = self.rng.gen_range(2..6);
            let step = self.expr(&["a".to_string(), "b".to_string(), "r".to_string()], 1);
            format!(
                "int {name}(int a, int b) {{\nint r = {e1};\nfor (int k = 0; k < {iters}; k++) r = r ^ ({step});\nreturn r;\n}}\n"
            )
        } else {
            let e2 = self.expr(&params, 2);
            format!("int {name}(int a, int b) {{\nreturn ({e1}) + ({e2});\n}}\n")
        }
    }

    /// Like `program`, but first defines 1–3 helpers that expressions may
    /// call — exercises per-partition function versioning and call-result
    /// forwarding in DSWP on random shapes.
    pub fn program_with_helpers(&mut self) -> String {
        let n = self.rng.gen_range(1..=3);
        let mut defs = String::new();
        for i in 0..n {
            let name = format!("h{i}");
            defs.push_str(&self.helper(&name));
            self.helpers.push(name);
        }
        let mut vars = vec!["seed".to_string()];
        let mut budget = 24u32;
        let body = self.stmts(&mut vars, &mut budget);
        let sink = self.expr(&vars, 2);
        format!(
            "int buf[32];\n{defs}int main() {{\nint seed = in();\n{body}out({sink});\nfor (int k = 0; k < 32; k++) out(buf[k]);\nreturn 0;\n}}\n"
        )
    }
}
