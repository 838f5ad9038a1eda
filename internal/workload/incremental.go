package workload

// IncrementalDemoSrc is a small program with a live PA violation trigger,
// used to demonstrate incremental re-analysis (§8's second alternative): one
// PA violation abandons only the PA assumption, while the Ctx-assumed hook
// registrations keep their precision.
const IncrementalDemoSrc = `
struct dispatcher { fn handler; int* state; }
struct registry { fn on_load; fn on_save; }
dispatcher disp;
registry reg_doc;
registry reg_net;
int buff[16];

int normal_op(int* x) { return 1; }
int rare_op(int* x) { return 2; }
int doc_load(int* x) { return 3; }
int doc_save(int* x) { return 4; }
int net_load(int* x) { return 5; }
int net_save(int* x) { return 6; }

void patch(char* region, fn op, int off) {
  *(region + off) = op;
}

void hooks_set(registry* r, fn lo, fn sa) {
  r->on_load = lo;
  r->on_save = sa;
}

int main() {
  char* region;
  fn op;
  int r;
  disp.handler = &normal_op;
  hooks_set(&reg_doc, doc_load, doc_save);
  hooks_set(&reg_net, net_load, net_save);
  op = &rare_op;
  region = buff;
  if (input()) {
    region = &disp;
  }
  patch(region, op, 0);
  r = disp.handler(null);
  r = r + reg_doc.on_load(null);
  return r + reg_net.on_save(null);
}
`
