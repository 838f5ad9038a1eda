package invariant

import "testing"

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		PA:      "pointer-arithmetic",
		PWC:     "positive-weight-cycle",
		Ctx:     "context-sensitivity",
		Kind(9): "invariant.Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestConfigNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "Baseline"},
		{Config{Ctx: true}, "Kd-Ctx"},
		{Config{PA: true}, "Kd-PA"},
		{Config{PWC: true}, "Kd-PWC"},
		{Config{Ctx: true, PA: true}, "Kd-Ctx-PA"},
		{Config{Ctx: true, PWC: true}, "Kd-Ctx-PWC"},
		{Config{PA: true, PWC: true}, "Kd-PA-PWC"},
		{All(), "Kaleidoscope"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name(%+v) = %q, want %q", c.cfg, got, c.want)
		}
	}
}

// TestParseConfig: ParseConfig inverts Name over every ablation and accepts
// the short command-line/wire forms and aliases.
func TestParseConfig(t *testing.T) {
	for _, c := range Ablations() {
		if got, err := ParseConfig(c.Name()); err != nil || got != c {
			t.Errorf("ParseConfig(%q) = %+v, %v; want %+v", c.Name(), got, err, c)
		}
	}
	cases := map[string]Config{
		"":             All(),
		"baseline":     {},
		"none":         {},
		"ctx":          {Ctx: true},
		"pa":           {PA: true},
		"pwc":          {PWC: true},
		"ctx-pa":       {Ctx: true, PA: true},
		"ctx-pwc":      {Ctx: true, PWC: true},
		"pa-pwc":       {PA: true, PWC: true},
		"kd-pa-pwc":    {PA: true, PWC: true},
		"all":          All(),
		"kaleidoscope": All(),
		"ALL":          All(), // case-insensitive
	}
	for name, want := range cases {
		if got, err := ParseConfig(name); err != nil || got != want {
			t.Errorf("ParseConfig(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "kd-", "kd-baseline", "pa-ctx"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig accepted %q", bad)
		}
	}
}

func TestAny(t *testing.T) {
	if (Config{}).Any() {
		t.Error("zero config Any")
	}
	if !(Config{PWC: true}).Any() || !All().Any() {
		t.Error("non-zero config not Any")
	}
}

func TestAblationsCoverAllCombinations(t *testing.T) {
	abls := Ablations()
	if len(abls) != 8 {
		t.Fatalf("ablations = %d, want 8", len(abls))
	}
	seen := map[string]bool{}
	for _, cfg := range abls {
		name := cfg.Name()
		if seen[name] {
			t.Errorf("duplicate config %s", name)
		}
		seen[name] = true
	}
	if abls[0].Any() {
		t.Error("first ablation must be the baseline")
	}
	if abls[7] != All() {
		t.Error("last ablation must be full Kaleidoscope")
	}
}
