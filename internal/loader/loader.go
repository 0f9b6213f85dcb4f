// Package loader defines the object module produced by the assembler
// and loads it into a memory image with the SDSP-32 address map (see
// Mix.Load; a single program is the one-slot SoloMix).
package loader

import "fmt"

// Address map. The flag segment is reached only through the
// synchronization controller (FLDW/FSTW/FAI); LW/SW to it are a program
// error that the simulators detect.
const (
	TextBase = 0x0000_0000
	DataBase = 0x0008_0000 // 512 KiB for text
	FlagBase = 0x0010_0000 // 512 KiB for data
	FlagSize = 0x0000_1000 // 4 KiB of flag words
	MemSize  = FlagBase + FlagSize
)

// Object is a linked SDSP-32 program.
type Object struct {
	Text    []uint32          // encoded instructions, loaded at TextBase
	Data    []uint32          // initialized data, loaded at DataBase
	FlagLen uint32            // flag segment length in bytes (zero-initialized)
	Entry   uint32            // entry point for every thread
	Symbols map[string]uint32 // label -> absolute byte address
}

// Validate checks segment bounds.
func (o *Object) Validate() error {
	if uint32(len(o.Text))*4 > DataBase-TextBase {
		return fmt.Errorf("loader: text segment too large (%d words)", len(o.Text))
	}
	if uint32(len(o.Data))*4 > FlagBase-DataBase {
		return fmt.Errorf("loader: data segment too large (%d words)", len(o.Data))
	}
	if o.FlagLen > FlagSize {
		return fmt.Errorf("loader: flag segment too large (%d bytes)", o.FlagLen)
	}
	if o.Entry%4 != 0 || o.Entry >= uint32(len(o.Text))*4 {
		return fmt.Errorf("loader: entry point %#x outside text", o.Entry)
	}
	return nil
}

// Symbol returns the address of a label, with a helpful error when the
// label is unknown.
func (o *Object) Symbol(name string) (uint32, error) {
	addr, ok := o.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("loader: unknown symbol %q", name)
	}
	return addr, nil
}

// IsFlagAddr reports whether addr falls in the uncached flag segment.
func IsFlagAddr(addr uint32) bool { return addr >= FlagBase && addr < FlagBase+FlagSize }

// IsDataAddr reports whether addr falls in the cached data segment.
func IsDataAddr(addr uint32) bool { return addr >= DataBase && addr < FlagBase }
