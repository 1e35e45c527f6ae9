// Command doccheck is the documentation gate: it fails when an exported
// identifier in the named packages lacks a doc comment, when a package
// lacks a package comment, or when a repro command quoted in a methodology
// document (EXPERIMENTS.md) no longer parses against the repository — a
// `go run ./cmd/<name>` whose command directory is gone, or a
// `make <target>` whose target left the Makefile. Stdlib only (go/parser +
// go/doc); wired into `make docs-check` and therefore the CI lint job.
// A package argument ending in /... names every package directory below
// it, testdata excluded, as for the go command.
//
// Usage:
//
//	doccheck -md EXPERIMENTS.md ./internal/... ./cmd/...
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	var md multiFlag
	flag.Var(&md, "md", "methodology document whose fenced repro commands must parse (repeatable)")
	flag.Parse()
	os.Exit(run(flag.Args(), md, os.Stdout, os.Stderr))
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// run executes the audit and returns the exit code: 0 clean, 1 findings,
// 2 operational failure (unreadable package or document).
func run(pkgs []string, mdFiles []string, stdout, stderr io.Writer) int {
	dirs, err := expand(pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "doccheck:", err)
		return 2
	}
	var findings []string
	for _, dir := range dirs {
		fs, err := auditPackage(dir)
		if err != nil {
			fmt.Fprintln(stderr, "doccheck:", err)
			return 2
		}
		findings = append(findings, fs...)
	}
	for _, md := range mdFiles {
		fs, err := auditCommands(md)
		if err != nil {
			fmt.Fprintln(stderr, "doccheck:", err)
			return 2
		}
		findings = append(findings, fs...)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		fmt.Fprintf(stdout, "doccheck: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// expand replaces each dir/... argument with the directories below dir
// that hold a non-test Go file, skipping testdata and directories whose
// name starts with . or _, as the go command does.
func expand(args []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	for _, arg := range args {
		root, ok := strings.CutSuffix(arg, "/...")
		if !ok {
			dirs = append(dirs, arg)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() && path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				if dir := filepath.Dir(path); !seen[dir] {
					seen[dir] = true
					dirs = append(dirs, dir)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// auditPackage parses one package directory (tests excluded) and reports
// every exported identifier without a doc comment.
func auditPackage(dir string) ([]string, error) {
	fset := token.NewFileSet()
	parsed, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var findings []string
	for name, astPkg := range parsed {
		p := doc.New(astPkg, dir, 0)
		at := func(what, ident string) {
			findings = append(findings,
				fmt.Sprintf("%s: %s %s is exported but undocumented", dir, what, ident))
		}
		if strings.TrimSpace(p.Doc) == "" {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, name))
		}
		for _, f := range p.Funcs {
			if token.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
				at("func", f.Name)
			}
		}
		// A value group is documented by a group comment or per-spec
		// comments (the idiom for enums like ShedPolicy and OpKind); only
		// an exported name covered by neither is a finding.
		checkValues := func(vals []*doc.Value, what string) {
			for _, v := range vals {
				if strings.TrimSpace(v.Doc) != "" {
					continue
				}
				for _, spec := range v.Decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || (vs.Doc != nil && strings.TrimSpace(vs.Doc.Text()) != "") {
						continue
					}
					for _, n := range vs.Names {
						if token.IsExported(n.Name) {
							at(what, n.Name)
							break
						}
					}
				}
			}
		}
		checkValues(p.Consts, "const")
		checkValues(p.Vars, "var")
		for _, t := range p.Types {
			if token.IsExported(t.Name) && strings.TrimSpace(t.Doc) == "" {
				at("type", t.Name)
			}
			for _, f := range t.Funcs {
				if token.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
					at("func", f.Name)
				}
			}
			for _, m := range t.Methods {
				if token.IsExported(m.Name) && strings.TrimSpace(m.Doc) == "" {
					at("method", t.Name+"."+m.Name)
				}
			}
			checkValues(t.Consts, "const")
			checkValues(t.Vars, "var")
		}
	}
	return findings, nil
}

var (
	goRunRe   = regexp.MustCompile(`go run (\./cmd/[a-z0-9_-]+)`)
	makeTgtRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]*$`)
)

// auditCommands scans a markdown document's fenced code blocks for repro
// commands and verifies each one still parses against the repository:
// `go run ./cmd/<name>` needs the command directory, `make <target>` needs
// the Makefile rule.
func auditCommands(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	makeTargets, err := readMakeTargets("Makefile")
	if err != nil {
		return nil, err
	}
	var findings []string
	inFence := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			continue
		}
		trimmed = strings.TrimPrefix(trimmed, "$ ")
		for _, m := range goRunRe.FindAllStringSubmatch(trimmed, -1) {
			if st, err := os.Stat(filepath.FromSlash(m[1])); err != nil || !st.IsDir() {
				findings = append(findings,
					fmt.Sprintf("%s:%d: repro command references missing command %s", path, lineNo+1, m[1]))
			}
		}
		fields := strings.Fields(trimmed)
		if len(fields) >= 2 && fields[0] == "make" {
			for _, tgt := range fields[1:] {
				if !makeTgtRe.MatchString(tgt) {
					continue // an option or variable assignment, not a target
				}
				if !makeTargets[tgt] {
					findings = append(findings,
						fmt.Sprintf("%s:%d: repro command references missing make target %q", path, lineNo+1, tgt))
				}
			}
		}
	}
	return findings, nil
}

// readMakeTargets collects the rule names of the Makefile.
func readMakeTargets(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "#") {
			continue
		}
		colon := strings.Index(line, ":")
		if colon <= 0 {
			continue
		}
		if strings.HasPrefix(line[colon:], ":=") {
			continue // variable assignment
		}
		for _, name := range strings.Fields(line[:colon]) {
			if makeTgtRe.MatchString(name) {
				targets[name] = true
			}
		}
	}
	return targets, nil
}
