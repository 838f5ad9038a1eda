package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseInputs(t *testing.T) {
	got, err := parseInputs("1, 2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseInputs = %v, %v", got, err)
	}
	if got, err := parseInputs(""); err != nil || got != nil {
		t.Errorf("empty inputs = %v, %v", got, err)
	}
	if _, err := parseInputs("1,x"); err == nil {
		t.Error("parseInputs accepted non-integer")
	}
}

func TestLoadModuleFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mc")
	if err := os.WriteFile(path, []byte("int main() { return 7; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadModule("", []string{path})
	if err != nil {
		t.Fatalf("loadModule: %v", err)
	}
	if m.Func("main") == nil {
		t.Error("main missing")
	}
	if _, err := loadModule("", nil); err == nil {
		t.Error("no-args load succeeded")
	}
	if _, err := loadModule("", []string{filepath.Join(dir, "missing.mc")}); err == nil {
		t.Error("missing-file load succeeded")
	}
}

func TestLoadModuleFromWorkload(t *testing.T) {
	m, err := loadModule("tinydtls", nil)
	if err != nil {
		t.Fatalf("loadModule: %v", err)
	}
	if m.Func("main") == nil {
		t.Error("main missing")
	}
	if _, err := loadModule("no-such-app", nil); err == nil {
		t.Error("unknown workload load succeeded")
	}
}

func TestLoadModuleTestdata(t *testing.T) {
	m, err := loadModule("", []string{filepath.Join("..", "..", "testdata", "demo.mc")})
	if err != nil {
		t.Fatalf("loadModule(testdata/demo.mc): %v", err)
	}
	if m.Func("main") == nil || m.Func("hello") == nil {
		t.Error("demo module incomplete")
	}
}
