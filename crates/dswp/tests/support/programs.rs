//! Mini-C programs shared by the DSWP option property test
//! (`proptest_options.rs`) and the placement oracle
//! (`placement_oracle.rs`): a forward-decoupling loop, a memory-carried
//! produce/reduce pair and a call in a hot loop.

pub const PROGRAMS: &[&str] = &[
    // Forward-decoupling hash pipeline.
    r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 30; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    unsigned int y = (x >> 7) ^ (x << 3);
    acc = acc * 31 + y;
  }
  out((int) acc);
  return 0;
}
"#,
    // Memory-carried: produce into an array, then reduce it.
    r#"
int buf[24];
int main() {
  for (int i = 0; i < 24; i++) buf[i] = (i * 17) ^ (i << 4);
  int s = 0;
  for (int i = 0; i < 24; i++) s += buf[i];
  out(s);
  return s;
}
"#,
    // Call in the hot loop + data-dependent control.
    r#"
int mix(int a, int b) { return (a * 31) ^ (b >> 3); }
int main() {
  int acc = 7;
  for (int i = 0; i < 25; i++) {
    if (i % 3 == 0) acc = mix(acc, i * 1103515245);
    else acc = acc + i;
  }
  out(acc);
  return 0;
}
"#,
];
