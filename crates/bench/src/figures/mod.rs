//! The table printers behind the `exp` binary, one module per figure:
//! `exp <name>` runs the module's `main`, which prints the figure's
//! markdown tables on stdout (and, where the rows implement
//! [`JsonRow`](crate::json::JsonRow), dumps them under
//! `HOMONYM_EXP_JSON`).

/// Declares the module of each figure and the table `exp` selects from,
/// so that a figure's name is spelled once.
macro_rules! figures {
    ($($name:ident),+) => {
        $(mod $name;)+

        /// Every figure `exp` can print: the name given on the command
        /// line and the printer it selects.
        pub const ALL: &[(&str, fn())] = &[$((stringify!($name), $name::main)),+];
    };
}

figures!(
    ablation, chaos, combined, e2e, fig1_fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, price
);
