/* A small mixing pipeline with an obvious hotspot, for trying the
 * line-granular profiler:
 *
 *     cargo run --release --bin twillc -- examples/hotspot.c \
 *         --partitions 2 --annotate /dev/stdout --folded hotspot.folded
 *
 * The annotated listing shows most cycles landing on the mix loop below;
 * feed hotspot.folded to flamegraph.pl / inferno for the same picture as
 * a flamegraph. See README "find your hotspot".
 */

int table[64];

int mix(int x) {
  int a = (x * 7 + 3) & 63;
  int b = (x >> 2) & 63;
  return table[a] ^ table[b] ^ (x * 2654435761);
}

int main() {
  for (int i = 0; i < 64; i++) {
    table[i] = i * i + 17;
  }
  int acc = 0;
  for (int i = 0; i < 512; i++) {
    int v = mix(i + acc);
    acc = acc + (v % 97);
  }
  out(acc);
  return 0;
}
