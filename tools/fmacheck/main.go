// Command fmacheck fails when the compiler fuses a floating-point multiply
// and add from this module's source into one instruction. The Go spec lets
// an architecture evaluate x*y + z with a single rounding. amd64 never does;
// arm64, ppc64le and riscv64 do, so a fused line makes the simulation's bits
// depend on the machine that runs it. An explicit conversion, as in
// float64(x*y) + z, rounds the product and forbids the fusion.
//
// fmacheck cross-builds ./cmd/... for each of those architectures into a
// temporary directory and disassembles every binary with go tool objdump.
// It maps each fused instruction's address back to its source file and line
// through the binary's line table, so code inlined from another file reports
// under that file's own line. It exits non-zero and names every line of this
// module that fused on any architecture. Standard library only; it needs no
// emulator.
//
// Usage, from the module root:
//
//	go run ./tools/fmacheck
package main

import (
	"bufio"
	"debug/elf"
	"debug/gosym"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// arches are the architectures whose compilers fuse multiply-add.
var arches = []string{"arm64", "ppc64le", "riscv64"}

// fusedOp matches a fused multiply-add or multiply-subtract mnemonic in go
// tool objdump's syntax on every checked architecture: FMADDD, FNMSUBD and
// the S forms on arm64 and riscv64, FMADD, FMSUBS and the CC forms on
// ppc64le.
var fusedOp = regexp.MustCompile(`^FN?M(ADD|SUB)[DS]?(CC)?$`)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./tools/fmacheck (from the module root)")
		os.Exit(2)
	}
	sites, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmacheck:", err)
		os.Exit(2)
	}
	if len(sites) == 0 {
		fmt.Printf("fmacheck: no fused multiply-add from this module on %s\n", strings.Join(arches, ", "))
		return
	}
	for _, line := range report(sites) {
		fmt.Fprintln(os.Stderr, line)
	}
	fmt.Fprintf(os.Stderr, "fmacheck: %d source lines fuse a multiply-add; round the product explicitly, as in float64(x*y) + z\n", len(sites))
	os.Exit(1)
}

// run builds and disassembles ./cmd/... for every architecture and returns
// the module's fused lines: "file:line" to the set of "arch OP" it fused
// into.
func run() (map[string]map[string]bool, error) {
	root, modPath, err := module()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "fmacheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	sites := make(map[string]map[string]bool)
	for _, arch := range arches {
		dir := filepath.Join(tmp, arch)
		if err := build(root, arch, dir); err != nil {
			return nil, err
		}
		bins, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, b := range bins {
			found, err := check(filepath.Join(dir, b.Name()), root, modPath)
			if err != nil {
				return nil, err
			}
			for at, ops := range found {
				if sites[at] == nil {
					sites[at] = make(map[string]bool)
				}
				for _, op := range ops {
					sites[at][arch+" "+op] = true
				}
			}
		}
	}
	return sites, nil
}

// module returns the module's root directory and import path.
func module() (root, path string, err error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}\n{{.Path}}").Output()
	if err != nil {
		return "", "", fmt.Errorf("go list -m: %w", err)
	}
	f := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(f) != 2 {
		return "", "", fmt.Errorf("go list -m: unexpected output %q", out)
	}
	return f[0], f[1], nil
}

// build cross-compiles every command of the module for arch into dir.
func build(root, arch, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build ./cmd/... for %s: %w", arch, err)
	}
	return nil
}

// check disassembles one binary and returns its fused instructions that
// come from module source, keyed by module-relative "file:line".
func check(bin, root, modPath string) (map[string][]string, error) {
	lineOf, err := lineTable(bin)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "objdump", bin)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	found, scanErr := scanFused(out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("objdump %s: %w", bin, err)
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return moduleSites(found, lineOf, root, modPath), nil
}

// lineTable returns the binary's pc-to-source mapping. The table records
// the innermost position of inlined code, which is what attributes an
// inlined helper's instructions to the helper's own file.
func lineTable(bin string) (func(pc uint64) (string, int), error) {
	f, err := elf.Open(bin)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	text, pcln := f.Section(".text"), f.Section(".gopclntab")
	if text == nil || pcln == nil {
		return nil, fmt.Errorf("%s: no Go line table", bin)
	}
	data, err := pcln.Data()
	if err != nil {
		return nil, err
	}
	var sym []byte
	if s := f.Section(".gosymtab"); s != nil {
		if sym, err = s.Data(); err != nil {
			return nil, err
		}
	}
	tab, err := gosym.NewTable(sym, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bin, err)
	}
	return func(pc uint64) (string, int) {
		file, line, _ := tab.PCToLine(pc)
		return file, line
	}, nil
}

// fused is one fused multiply-add instruction of a disassembly.
type fused struct {
	pc uint64
	op string
}

// scanFused returns the fused multiply-add instructions in go tool objdump
// output, whose instruction lines read "file.go:line  0xPC  encoding  OP
// operands".
func scanFused(r io.Reader) ([]fused, error) {
	var out []fused
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[1], "0x") || !fusedOp.MatchString(f[3]) {
			continue
		}
		pc, err := strconv.ParseUint(f[1][2:], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("objdump line %q: %w", sc.Text(), err)
		}
		out = append(out, fused{pc: pc, op: f[3]})
	}
	return out, sc.Err()
}

// moduleSites maps fused instructions to the module source lines they come
// from, keyed by module-relative "file:line". Instructions from the runtime
// and the standard library are dropped. Source paths are absolute, or start
// with the module path in a -trimpath build.
func moduleSites(fs []fused, lineOf func(pc uint64) (string, int), root, modPath string) map[string][]string {
	out := make(map[string][]string)
	for _, f := range fs {
		file, line := lineOf(f.pc)
		rel, ok := strings.CutPrefix(filepath.ToSlash(file), filepath.ToSlash(root)+"/")
		if !ok {
			if rel, ok = strings.CutPrefix(file, modPath+"/"); !ok {
				continue
			}
		}
		at := rel + ":" + strconv.Itoa(line)
		out[at] = append(out[at], f.op)
	}
	return out
}

// report renders one line per fused source line, in file and line order,
// naming the architectures and instructions it fused into.
func report(sites map[string]map[string]bool) []string {
	keys := make([]string, 0, len(sites))
	for at := range sites {
		keys = append(keys, at)
	}
	sort.Slice(keys, func(i, j int) bool {
		fi, li := splitSite(keys[i])
		fj, lj := splitSite(keys[j])
		if fi != fj {
			return fi < fj
		}
		return li < lj
	})
	out := make([]string, 0, len(keys))
	for _, at := range keys {
		ops := make([]string, 0, len(sites[at]))
		for op := range sites[at] {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		out = append(out, fmt.Sprintf("%s: fused multiply-add (%s)", at, strings.Join(ops, ", ")))
	}
	return out
}

// splitSite splits "file:line" for sorting.
func splitSite(at string) (string, int) {
	i := strings.LastIndexByte(at, ':')
	n, _ := strconv.Atoi(at[i+1:])
	return at[:i], n
}
